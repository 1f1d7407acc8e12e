package dispatch

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

// oracle recomputes one lane's lower bound directly from the packed
// block bytes, independently of both the generic kernel's loop
// structure and the assembly.
func oracle(blk []byte, c, lane int, tables *[128]byte) uint8 {
	sum := 0
	for j := 0; j < c; j++ {
		pb := blk[j*8+lane/2]
		nib := pb & 0x0f
		if lane%2 == 1 {
			nib = pb >> 4
		}
		sum += int(tables[j*16+int(nib)])
	}
	for j := c; j < 8; j++ {
		fb := blk[c*8+(j-c)*16+lane]
		sum += int(tables[j*16+int(fb>>4)])
	}
	if sum > 127 {
		sum = 127
	}
	return uint8(sum)
}

// randomCase builds a random group: packed blocks, tables with entries
// in [0,127] (the distance quantizer's range), and every c.
func randomCase(r *rand.Rand, c, nblocks int) (blocks []byte, tables [128]byte) {
	blockBytes := 128 - 8*c
	blocks = make([]byte, nblocks*blockBytes)
	r.Read(blocks)
	for i := range tables {
		tables[i] = uint8(r.Intn(128))
	}
	return blocks, tables
}

func TestAccumulateGenericMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for c := 0; c <= 4; c++ {
		blockBytes := 128 - 8*c
		for _, nblocks := range []int{1, 2, 3, 7, 16} {
			blocks, tables := randomCase(r, c, nblocks)
			thr := int8(r.Intn(256) - 128)
			dst := make([]byte, nblocks*16)
			masks := make([]uint16, nblocks)
			AccumulateGeneric(blocks, blockBytes, c, nblocks, thr, &tables, dst, masks)
			for b := 0; b < nblocks; b++ {
				blk := blocks[b*blockBytes : (b+1)*blockBytes]
				for lane := 0; lane < 16; lane++ {
					want := oracle(blk, c, lane, &tables)
					if got := dst[b*16+lane]; got != want {
						t.Fatalf("c=%d block=%d lane=%d: generic %d, oracle %d", c, b, lane, got, want)
					}
					if got := masks[b]>>lane&1 == 1; got != (int(want) > int(thr)) {
						t.Fatalf("c=%d block=%d lane=%d thr=%d bound=%d: pruned bit %v", c, b, lane, thr, want, got)
					}
				}
			}
		}
	}
}

// TestAsmKernelsMatchGeneric drives every available backend through
// Accumulate and requires lower-bound bytes and pruned masks identical
// to the generic reference — the kernel-level leg of the cross-backend
// exactness contract (the scan-level leg lives in internal/scan). Every
// grouping depth meets every threshold, over odd and even block counts
// (the AVX2 pair loop and its odd tail), with saturation pressure on a
// third of the cases so sums cross 127 and (on AVX2) the 255
// intermediate clamp. Blocks are random to the last byte, so the lanes
// a real group would pad are compared like any other.
func TestAsmKernelsMatchGeneric(t *testing.T) {
	for _, be := range AvailableBackends() {
		t.Run(be.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(2))
			for c := 0; c <= 4; c++ {
				blockBytes := 128 - 8*c
				for thr := -128; thr <= 127; thr++ {
					nblocks := 1 + r.Intn(9)
					blocks, tables := randomCase(r, c, nblocks)
					if thr%3 == 0 {
						for i := range tables {
							tables[i] |= 0x60
						}
					}
					want, wantMasks := make([]byte, nblocks*16), make([]uint16, nblocks)
					got, gotMasks := make([]byte, nblocks*16), make([]uint16, nblocks)
					AccumulateGeneric(blocks, blockBytes, c, nblocks, int8(thr), &tables, want, wantMasks)
					Accumulate(be, blocks, blockBytes, c, nblocks, int8(thr), &tables, got, gotMasks)
					if !bytes.Equal(got, want) {
						t.Fatalf("c=%d nblocks=%d: %s bytes disagree with generic\n got %x\nwant %x",
							c, nblocks, be, got, want)
					}
					for b := range wantMasks {
						if gotMasks[b] != wantMasks[b] {
							t.Fatalf("c=%d nblocks=%d thr=%d block=%d: %s mask %016b, generic %016b (bytes %x)",
								c, nblocks, thr, b, be, gotMasks[b], wantMasks[b], want[b*16:b*16+16])
						}
					}
				}
			}
		})
	}
}

func TestParseAndStrings(t *testing.T) {
	for _, be := range []Backend{Auto, SWAR, AVX2, NEON} {
		got, err := Parse(be.String())
		if err != nil || got != be {
			t.Fatalf("Parse(%q) = %v, %v", be.String(), got, err)
		}
	}
	if _, err := Parse("avx512"); err == nil {
		t.Fatal("Parse accepted unknown backend")
	}
}

func TestForceAndResolve(t *testing.T) {
	orig := Active()
	defer Force(orig)
	if err := Force(SWAR); err != nil {
		t.Fatalf("Force(SWAR): %v", err)
	}
	if Active() != SWAR || Resolve(Auto) != SWAR {
		t.Fatalf("Active=%v Resolve(Auto)=%v after Force(SWAR)", Active(), Resolve(Auto))
	}
	if !NEON.Available() {
		if err := Force(NEON); err == nil {
			t.Fatal("Force accepted an unavailable backend")
		}
	}
	if err := Force(Auto); err != nil {
		t.Fatalf("Force(Auto): %v", err)
	}
	if Active() == Auto {
		t.Fatal("Active resolved to Auto")
	}
}

func TestActiveIsAvailable(t *testing.T) {
	if be := Active(); !be.Available() || be == Auto {
		t.Fatalf("startup backend %v not concrete/available", be)
	}
}

// TestForcedBackendHonored makes the CI backend-matrix legs meaningful:
// when PQ_FORCE_BACKEND names a concrete backend, the startup selection
// must have honored it — otherwise the leg would silently exercise the
// fallback and a broken assembly kernel could land green.
func TestForcedBackendHonored(t *testing.T) {
	name := os.Getenv(EnvVar)
	if name == "" {
		t.Skipf("%s not set", EnvVar)
	}
	forced, err := Parse(name)
	if err != nil {
		t.Fatalf("%s=%q does not name a backend: %v", EnvVar, name, err)
	}
	if forced == Auto {
		t.Skip("auto defers to feature detection")
	}
	if got := Active(); got != forced {
		t.Fatalf("%s=%s was not honored: active backend %s (init note %q) — this run is testing the fallback, not the forced backend",
			EnvVar, forced, got, InitNote())
	}
}

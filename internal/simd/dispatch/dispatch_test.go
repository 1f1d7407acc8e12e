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

// TestAsmKernelsMatchGeneric drives the asm-avx2 kernel, where the CPU
// has it, through Accumulate and requires lower-bound bytes and pruned
// masks identical to the generic reference — the kernel-level leg of
// the cross-backend exactness contract (swar's is
// TestSWARAccumulateMatchesGeneric in internal/scan, the scan-level leg
// lives there too). Every
// grouping depth meets every threshold, over odd and even block counts
// (the AVX2 pair loop and its odd tail), with saturation pressure on a
// third of the cases so sums cross 127 and (on AVX2) the 255
// intermediate clamp. Blocks are random to the last byte, so the lanes
// a real group would pad are compared like any other.
func TestAsmKernelsMatchGeneric(t *testing.T) {
	if !AVX2.Available() {
		t.Log("skipped: no avx2")
		return
	}
	t.Run(AVX2.String(), func(t *testing.T) {
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
				Accumulate(blocks, blockBytes, c, nblocks, int8(thr), &tables, got, gotMasks)
				if !bytes.Equal(got, want) {
					t.Fatalf("c=%d nblocks=%d: %s bytes disagree with generic\n got %x\nwant %x",
						c, nblocks, AVX2, got, want)
				}
				for b := range wantMasks {
					if gotMasks[b] != wantMasks[b] {
						t.Fatalf("c=%d nblocks=%d thr=%d block=%d: %s mask %016b, generic %016b (bytes %x)",
							c, nblocks, thr, b, AVX2, gotMasks[b], wantMasks[b], want[b*16:b*16+16])
					}
				}
			}
		}
	})
}

// exactOracle recomputes one lane's exact bound from its code: the
// grouped components' bytes are key<<4 | nibble, the ungrouped ones the
// full byte, each looked up in its whole row.
func exactOracle(blk []byte, c, lane int, key *[4]uint8, rows *[8][256]uint8) uint8 {
	sum := 0
	for j := 0; j < c; j++ {
		nib := blk[j*8+lane/2] >> (4 * (lane % 2)) & 0x0f
		sum += int(rows[j][key[j]<<4|nib])
	}
	for j := c; j < 8; j++ {
		sum += int(rows[j][blk[c*8+(j-c)*16+lane]])
	}
	return uint8(min(sum, 127))
}

// randomRows fills rows with entries in [0, 127] and key with nibbles.
func randomRows(r *rand.Rand, rows *[8][256]uint8, key *[4]uint8) {
	for j := range rows {
		for i := range rows[j] {
			rows[j][i] = uint8(r.Intn(128))
		}
	}
	for j := range key {
		key[j] = uint8(r.Intn(16))
	}
}

func TestAccumulateExactGenericMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var rows [8][256]uint8
	var key [4]uint8
	for c := 0; c <= 4; c++ {
		blockBytes := 128 - 8*c
		for _, nblocks := range []int{1, 2, 3, 4, 5, 16} {
			blocks := make([]byte, nblocks*blockBytes)
			r.Read(blocks)
			randomRows(r, &rows, &key)
			thr := int8(r.Intn(256) - 128)
			dst := make([]byte, nblocks*16)
			masks := make([]uint16, nblocks)
			AccumulateExactGeneric(blocks, blockBytes, c, nblocks, thr, &key, &rows, dst, masks)
			for b := 0; b < nblocks; b++ {
				blk := blocks[b*blockBytes : (b+1)*blockBytes]
				for lane := 0; lane < 16; lane++ {
					want := exactOracle(blk, c, lane, &key, &rows)
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

// TestAsmExactMatchesGeneric is TestAsmKernelsMatchGeneric for the
// exact bound: every backend of that bound through AccumulateExact,
// against AccumulateExactGeneric, bytes and masks. Every grouping depth
// meets the thresholds at and around the edges, over block counts odd
// and even, multiples of four and not (the four-block loop and the
// one-block tail), with random rows and keys; on a third of the cases
// every entry is at least 0x60, so sums cross 127 and 255, and the
// lanes whose code byte has bit 7 set read the row's upper half.
func TestAsmExactMatchesGeneric(t *testing.T) {
	if !AVX512VBMI.Available() {
		t.Log("skipped: no avx512vbmi")
		return
	}
	t.Run(AVX512VBMI.String(), func(t *testing.T) {
		r := rand.New(rand.NewSource(4))
		var rows [8][256]uint8
		var key [4]uint8
		for c := 0; c <= 4; c++ {
			blockBytes := 128 - 8*c
			for _, thr := range []int{-128, -1, 0, 1, 63, 126, 127} {
				for _, nblocks := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16} {
					for rep := 0; rep < 3; rep++ {
						blocks := make([]byte, nblocks*blockBytes)
						r.Read(blocks)
						randomRows(r, &rows, &key)
						if rep == 2 {
							for j := range rows {
								for i := range rows[j] {
									rows[j][i] |= 0x60
								}
							}
						}
						want, wantMasks := make([]byte, nblocks*16), make([]uint16, nblocks)
						got, gotMasks := make([]byte, nblocks*16), make([]uint16, nblocks)
						AccumulateExactGeneric(blocks, blockBytes, c, nblocks, int8(thr), &key, &rows, want, wantMasks)
						AccumulateExact(blocks, blockBytes, c, nblocks, int8(thr), &key, &rows, got, gotMasks)
						if !bytes.Equal(got, want) {
							t.Fatalf("c=%d nblocks=%d: %s bytes disagree with generic\n got %x\nwant %x",
								c, nblocks, AVX512VBMI, got, want)
						}
						for b := range wantMasks {
							if gotMasks[b] != wantMasks[b] {
								t.Fatalf("c=%d nblocks=%d thr=%d block=%d: %s mask %016b, generic %016b (bytes %x)",
									c, nblocks, thr, b, AVX512VBMI, gotMasks[b], wantMasks[b], want[b*16:b*16+16])
							}
						}
					}
				}
			}
		}
	})
}

func TestParseAndStrings(t *testing.T) {
	for _, be := range []Backend{Auto, SWAR, AVX2, AVX512VBMI} {
		got, err := Parse(be.String())
		if err != nil || got != be {
			t.Fatalf("Parse(%q) = %v, %v", be.String(), got, err)
		}
	}
	for _, name := range []string{"avx512", "asm-neon", "asm-avx512"} {
		if _, err := Parse(name); err == nil {
			t.Fatalf("Parse accepted unknown backend %q", name)
		}
	}
}

// TestForceAndResolve: Force pins what Active reads, refuses a backend
// the machine cannot run, and Force(Auto) resolves to the
// feature-detected selection, never to Auto itself.
func TestForceAndResolve(t *testing.T) {
	orig := Active()
	defer Force(orig)
	if err := Force(SWAR); err != nil {
		t.Fatalf("Force(SWAR): %v", err)
	}
	if Active() != SWAR {
		t.Fatalf("Active=%v after Force(SWAR)", Active())
	}
	if err := Force(Backend(99)); err == nil {
		t.Fatal("Force accepted an unavailable backend")
	}
	if err := Force(Auto); err != nil {
		t.Fatalf("Force(Auto): %v", err)
	}
	if Active() != AvailableBackends()[0] {
		t.Fatalf("Force(Auto) left %v active, not the preferred %v", Active(), AvailableBackends()[0])
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

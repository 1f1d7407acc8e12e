package scan

import (
	"encoding/binary"
	"testing"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd"
	"pqfastscan/internal/simd/dispatch"
)

// randomSatReg returns a register with lanes in [0, 127], the invariant
// range of the quantized-distance pipeline.
func randomSatReg(r *rng.Source) simd.Reg {
	var reg simd.Reg
	for i := range reg {
		reg[i] = uint8(r.Intn(128))
	}
	return reg
}

// regWords is a register as the two uint64 SWAR words the scan works on,
// lanes 0-7 in lo and 8-15 in hi, lane 0 in the least significant byte.
func regWords(r simd.Reg) (lo, hi uint64) {
	return binary.LittleEndian.Uint64(r[:8]), binary.LittleEndian.Uint64(r[8:])
}

// TestSWARCompareMatchesPcmpgtB: the addend trick must reproduce the
// modeled signed compare + movemask for every accumulator value and
// every threshold the pruning loop can produce.
func TestSWARCompareMatchesPcmpgtB(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 10000; trial++ {
		acc := randomSatReg(r)
		t8 := int8(r.Intn(256) - 128)
		want := uint32(simd.PmovmskB(simd.PcmpgtB(acc, simd.Broadcast(uint8(t8)))))
		var got uint32
		if t8 < 0 {
			got = 0xffff
		} else {
			lo, hi := regWords(acc)
			add := swarGtAddend(t8)
			got = swarMovemask(lo+add) | swarMovemask(hi+add)<<8
		}
		if got != want {
			t.Fatalf("trial %d: t8=%d acc=%v: swar mask %04x != model %04x",
				trial, t8, acc, got, want)
		}
	}
}

// TestSWARMovemaskMatchesPmovmskB on arbitrary byte patterns (the
// movemask itself has no lane-range precondition).
func TestSWARMovemaskMatchesPmovmskB(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 10000; trial++ {
		var reg simd.Reg
		for i := range reg {
			reg[i] = uint8(r.Intn(256))
		}
		lo, hi := regWords(reg)
		got := swarMovemask(lo) | swarMovemask(hi)<<8
		if want := uint32(simd.PmovmskB(reg)); got != want {
			t.Fatalf("trial %d: %04x != %04x for %v", trial, got, want, reg)
		}
	}
}

// TestSWARAccumulateMatchesGeneric holds the swar group function to the
// kernel contract dispatch.TestAsmKernelsMatchGeneric holds the assembly
// to: for random blocks, every grouping depth, odd and even block counts
// and the edge thresholds, its masks equal dispatch.AccumulateGeneric's,
// and so does min(Σ, 127) of every lane it leaves in its 16-bit words.
// The group's small tables are planted at a random key inside otherwise
// random first-c rows, so the pair LUTs must pick the group's window.
// Low-entry tables keep sums near the thresholds; full-range ones
// saturate most lanes.
func TestSWARAccumulateMatchesGeneric(t *testing.T) {
	r := rng.New(31)
	for c := 0; c <= layout.MaxGroupComponents; c++ {
		bb := layout.BlockBytes(c)
		for _, nb := range []int{1, 2, 3, 8} {
			for _, thr := range []int8{-128, -1, 0, 126, 127} {
				for trial := 0; trial < 4; trial++ {
					entryMax := []int{16, 128}[trial%2]
					blocks := make([]uint8, nb*bb)
					for i := range blocks {
						blocks[i] = uint8(r.Intn(256))
					}
					var tables [128]uint8
					for i := range tables {
						tables[i] = uint8(r.Intn(entryMax))
					}
					qt := queryTables{c: c}
					var key [layout.MaxGroupComponents]uint8
					for j := 0; j < c; j++ {
						for i := range qt.qrows[j] {
							qt.qrows[j][i] = uint8(r.Intn(128))
						}
						key[j] = uint8(r.Intn(16))
						copy(qt.qrows[j][int(key[j])*16:], tables[j*16:j*16+16])
					}
					for j := c; j < M; j++ {
						copy(qt.minTables[j][:], tables[j*16:j*16+16])
					}
					qt.buildLUTs()

					words, masks := make([]uint64, 4*nb), make([]uint16, nb)
					qt.swarAccumulate(blocks, nb, &key, thr, words, masks)
					want, wantMasks := make([]uint8, 16*nb), make([]uint16, nb)
					dispatch.AccumulateGeneric(blocks, bb, c, nb, thr, &tables, want, wantMasks)
					for b := 0; b < nb; b++ {
						if masks[b] != wantMasks[b] {
							t.Fatalf("c=%d nb=%d thr=%d block %d: swar mask %016b, generic %016b", c, nb, thr, b, masks[b], wantMasks[b])
						}
						for lane := 0; lane < 16; lane++ {
							sum := min(words[4*b+lane/4]>>(16*(lane%4))&0xffff, 127)
							if got := uint8(sum); got != want[16*b+lane] {
								t.Fatalf("c=%d nb=%d block %d lane %d: swar min(Σ,127) %d, generic %d", c, nb, b, lane, got, want[16*b+lane])
							}
						}
					}
				}
			}
		}
	}
}

// TestScanNativeWithTombstones: dead rows are skipped identically on
// every backend, including when the current best matches die — deleted
// as the index deletes, one copy-on-write row and lane at a time.
func TestScanNativeWithTombstones(t *testing.T) {
	p, tables := randomPartition(t, 4000, 88)
	fs, err := newLayout(p, FastScanOptions{Keep: 0.01, GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	p = fs.Partition()
	best, _ := Naive(p, tables, 20)
	for _, res := range best[:10] {
		p, fs = tombstone(p, fs, rowOf(p, res.ID))
	}
	for i := 0; i < 4000; i += 13 {
		p, fs = tombstone(p, fs, i)
	}
	want, _ := Naive(p, tables, 20)
	scanEveryBackend(t, fs, tables, 20, want, "naive+dead")
	for _, res := range want {
		if p.DeadAt(rowOf(p, res.ID)) {
			t.Fatalf("oracle returned tombstoned id %d", res.ID)
		}
	}
}

// TestExactNativeMatchesKernels: the tuned exact scan returns the
// oracle's results bit for bit, with and without explicit ids and
// tombstones (the model's §3 baselines are held to it in
// internal/scan/model).
func TestExactNativeMatchesKernels(t *testing.T) {
	r := rng.New(55)
	sc := NewScratch()
	for trial := 0; trial < 25; trial++ {
		n := r.Intn(3000) + 1
		k := []int{1, 10, 100}[r.Intn(3)]
		p, tables := randomPartition(t, n, r.Uint64())
		if trial%2 == 1 {
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i)*3 + 7
			}
			p = NewPartition(p.FlatCodes(), ids)
			for i := 0; i < n; i += 11 {
				p, _ = p.CloneTombstone(i)
			}
		}
		want, _ := Naive(p, tables, k)
		got, gotStats := ExactNative(p, tables, k, sc)
		sameResults(t, want, got, "naive", "exact-native")
		if gotStats.Scanned != n {
			t.Fatalf("trial %d: Scanned = %d, want %d", trial, gotStats.Scanned, n)
		}
	}
}

// TestScanNativeAfterAppend: a layout rebound over a growing tail — rows
// it covers through the blocks, appended rows through the keep phase —
// keeps every backend on the oracle's answer, and in lockstep with each
// other, through online appends.
func TestScanNativeAfterAppend(t *testing.T) {
	r := rng.New(2025)
	p, tables := randomPartition(t, 2000, 61)
	fs, err := newLayout(p, FastScanOptions{Keep: 0.01, GroupComponents: 2})
	if err != nil {
		t.Fatal(err)
	}
	p = fs.Partition()
	for round := 0; round < 4; round++ {
		batch := r.Intn(200) + 1
		codes := make([]uint8, batch*M)
		ids := make([]int64, batch)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
		}
		for i := range ids {
			ids[i] = int64(p.N + i)
		}
		p = p.CloneAppend(codes, ids)
		fs = fs.Rebind(p, -1)

		want, _ := Naive(p, tables, 30)
		scanEveryBackend(t, fs, tables, 30, want, "naive")
	}
}

// TestScratchReuseIsStateless: a Scratch carried across queries of
// different shapes and k never changes any answer.
func TestScratchReuseIsStateless(t *testing.T) {
	r := rng.New(404)
	sc := NewScratch()
	for trial := 0; trial < 15; trial++ {
		n := r.Intn(2000) + 1
		k := []int{1, 40, 300}[r.Intn(3)]
		p, tables := randomPartition(t, n, r.Uint64())
		fs, err := newLayout(p, FastScanOptions{Keep: 0.01, GroupComponents: -1})
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := fs.ScanNativeBackend(tables, k, nil, dispatch.Auto)
		reused, _ := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
		sameResults(t, fresh, reused, "fresh-scratch", "reused-scratch")
	}
}

// TestDeadLanesArePruned: a block whose only survivors are dead lanes
// counts them Pruned, never Candidates, on every backend — lanes marked
// when the layout was built and lanes tombstoned through Rebind alike.
func TestDeadLanesArePruned(t *testing.T) {
	p, tables := randomPartition(t, 64, 5)
	// No keep region and a heap that never fills: no lane is pruned by
	// the threshold, so every lane survives its lower bound. With c = 0
	// the one group keeps the rows in order: block 1 is rows 16..31.
	opt := FastScanOptions{Keep: 0, GroupComponents: 0}
	const k = 100

	built := NewPartition(p.FlatCodes(), nil)
	for row := 16; row < 32; row++ {
		built, _ = built.CloneTombstone(row)
	}
	fsBuilt, err := newLayout(built, opt)
	if err != nil {
		t.Fatal(err)
	}
	fsRebound, err := newLayout(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	rebound := fsRebound.Partition()
	for row := 16; row < 32; row++ {
		rebound, fsRebound = tombstone(rebound, fsRebound, row)
	}

	for name, fs := range map[string]*FastScan{"built": fsBuilt, "rebound": fsRebound} {
		if m := fs.DeadLanes(1); m != 0xffff {
			t.Fatalf("%s: block 1 dead lanes %04x, want ffff", name, m)
		}
		want, _ := Naive(fs.Partition(), tables, k)
		st := scanEveryBackend(t, fs, tables, k, want, name)
		if st != (Stats{Scanned: 64, LowerBounds: 64, Pruned: 16, Candidates: 48, Groups: 1, Blocks: 4}) {
			t.Fatalf("%s: stats %+v, want the 16 dead lanes pruned and the 48 others candidates", name, st)
		}
	}
}

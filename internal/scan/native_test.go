package scan

import (
	"testing"

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

// TestSWARAddSat127MatchesPaddsB: on lanes in [0, 127] the SWAR add must
// agree lane-for-lane with the modeled signed saturating addition — the
// bridge equivalence the native accumulator rests on.
func TestSWARAddSat127MatchesPaddsB(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 10000; trial++ {
		a, b := randomSatReg(r), randomSatReg(r)
		want := simd.PaddsB(a, b)
		alo, ahi := a.Words()
		blo, bhi := b.Words()
		got := simd.FromWords(swarAddSat127(alo, blo), swarAddSat127(ahi, bhi))
		if got != want {
			t.Fatalf("trial %d: swar %v != paddsb %v (a=%v b=%v)", trial, got, want, a, b)
		}
	}
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
			lo, hi := acc.Words()
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
		lo, hi := reg.Words()
		got := swarMovemask(lo) | swarMovemask(hi)<<8
		if want := uint32(simd.PmovmskB(reg)); got != want {
			t.Fatalf("trial %d: %04x != %04x for %v", trial, got, want, reg)
		}
	}
}

// sameCounters asserts the engines walked the same path: identical
// vector/block accounting (Ops excluded — only the model engine fills
// it).
func sameCounters(t *testing.T, model, native Stats, label string) {
	t.Helper()
	if model.Scanned != native.Scanned || model.KeepScanned != native.KeepScanned ||
		model.LowerBounds != native.LowerBounds || model.Pruned != native.Pruned ||
		model.Candidates != native.Candidates || model.Groups != native.Groups ||
		model.Blocks != native.Blocks {
		t.Fatalf("%s: counters diverge: model %+v native %+v", label, model, native)
	}
	if native.Ops != (Stats{}).Ops {
		t.Fatalf("%s: native engine filled Ops: %+v", label, native.Ops)
	}
}

// TestScanNativeMatchesModel is the cross-engine equivalence invariant:
// over random shapes, keeps, grouping depths, orderings and k, the
// native SWAR kernel and the modeled kernel return bit-identical top-k
// and identical pruning counters.
func TestScanNativeMatchesModel(t *testing.T) {
	r := rng.New(31337)
	sc := NewScratch()
	for trial := 0; trial < 40; trial++ {
		n := r.Intn(5000) + 1
		k := []int{1, 7, 50, 200}[r.Intn(4)]
		p, tables := randomPartition(t, n, r.Uint64())
		fs, err := NewFastScan(p, FastScanOptions{
			Keep:            []float64{0, 0.002, 0.05}[r.Intn(3)],
			GroupComponents: r.Intn(5) - 1,
			OrderGroups:     r.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := fs.Scan(tables, k)
		got, gotStats := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
		sameResults(t, want, got, "model", "native")
		sameCounters(t, wantStats, gotStats, "fastscan")

		// The 256-bit widening returns the same set again; on the native
		// engine both widths share the SWAR kernel.
		want256, _ := fs.Scan256(tables, k)
		sameResults(t, want256, got, "model256", "native")
	}
}

// TestScanNativeBothPipelines runs the cross-engine sweep with the
// pair-LUT gate forced fully open and fully closed, so both native block
// pipelines (byte-lane saturating SWAR and 16-bit-lane pair-LUT) are
// exercised at every shape regardless of the default threshold.
func TestScanNativeBothPipelines(t *testing.T) {
	defer func(old int) { nativeLUTMinVectors = old }(nativeLUTMinVectors)
	for _, gate := range []int{0, 1 << 30} {
		nativeLUTMinVectors = gate
		r := rng.New(uint64(gate) + 17)
		sc := NewScratch()
		for trial := 0; trial < 20; trial++ {
			n := r.Intn(4000) + 1
			k := []int{1, 13, 120}[r.Intn(3)]
			p, tables := randomPartition(t, n, r.Uint64())
			fs, err := NewFastScan(p, FastScanOptions{
				Keep:            []float64{0, 0.01}[r.Intn(2)],
				GroupComponents: r.Intn(5) - 1,
				OrderGroups:     r.Intn(2) == 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats := fs.Scan(tables, k)
			got, gotStats := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
			sameResults(t, want, got, "model", "native")
			sameCounters(t, wantStats, gotStats, "pipeline gate")
		}
	}
}

// TestScanNativeWithTombstones: dead ids are skipped identically on both
// engines, including when the current best matches die.
func TestScanNativeWithTombstones(t *testing.T) {
	p, tables := randomPartition(t, 4000, 88)
	fs, err := NewFastScan(p, FastScanOptions{Keep: 0.01, GroupComponents: -1, OrderGroups: true})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := fs.Scan(tables, 20)
	for _, res := range best[:10] {
		p.Tombstone(res.ID)
	}
	for i := int64(0); i < 4000; i += 13 {
		p.Tombstone(i)
	}
	want, wantStats := fs.Scan(tables, 20)
	got, gotStats := fs.ScanNativeBackend(tables, 20, nil, dispatch.Auto)
	sameResults(t, want, got, "model+dead", "native+dead")
	sameCounters(t, wantStats, gotStats, "tombstones")
	for _, res := range got {
		if p.IsDead(res.ID) {
			t.Fatalf("native returned tombstoned id %d", res.ID)
		}
	}
}

// TestExactNativeMatchesKernels: the tuned exact scan serving the four
// baseline kernel selections returns bit-identical results to each of
// them, with and without explicit ids and tombstones.
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
			p.IDs = ids
			for i := 0; i < n; i += 11 {
				p.Tombstone(ids[i])
			}
		}
		want, _ := Naive(p, tables, k)
		got, gotStats := ExactNative(p, tables, k, sc)
		sameResults(t, want, got, "naive", "exact-native")
		if gotStats.Scanned != n {
			t.Fatalf("trial %d: Scanned = %d, want %d", trial, gotStats.Scanned, n)
		}
		lp, _ := Libpq(p, tables, k)
		sameResults(t, lp, got, "libpq", "exact-native")
		av, _ := AVX(p, tables, k)
		sameResults(t, av, got, "avx", "exact-native")
		ga, _ := Gather(p, tables, k)
		sameResults(t, ga, got, "gather", "exact-native")
	}
}

// TestScanNativeAfterAppend: the incremental layout maintenance of
// CloneAppend (including the NibbleMask updates feeding group ordering)
// keeps the engines in lockstep through online appends.
func TestScanNativeAfterAppend(t *testing.T) {
	r := rng.New(2025)
	p, tables := randomPartition(t, 2000, 61)
	fs, err := NewFastScan(p, FastScanOptions{Keep: 0.01, GroupComponents: 2, OrderGroups: true})
	if err != nil {
		t.Fatal(err)
	}
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
		fs = fs.CloneAppend(p, codes, ids)

		want, wantStats := fs.Scan(tables, 30)
		got, gotStats := fs.ScanNativeBackend(tables, 30, nil, dispatch.Auto)
		sameResults(t, want, got, "model", "native")
		sameCounters(t, wantStats, gotStats, "append round")
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
		fs, err := NewFastScan(p, FastScanOptions{Keep: 0.01, GroupComponents: -1, OrderGroups: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := fs.ScanNativeBackend(tables, k, nil, dispatch.Auto)
		reused, _ := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
		sameResults(t, fresh, reused, "fresh-scratch", "reused-scratch")
	}
}

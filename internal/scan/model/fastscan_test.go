package model

import (
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd/dispatch"
)

// TestFastScanStatsAccounting: scanned = keep + lower bounds (+ padding
// never counted), and pruned + candidates = lower bounds.
func TestFastScanStatsAccounting(t *testing.T) {
	p, tables := randomPartition(t, 5000, 9)
	for _, keep := range []float64{0, 0.01, 0.1} {
		fs, err := newLayout(p, scan.FastScanOptions{Keep: keep, GroupComponents: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, stats := Scan(fs, tables, 10)
		if stats.KeepScanned != fs.KeepN() {
			t.Errorf("keep=%v: KeepScanned=%d, want %d", keep, stats.KeepScanned, fs.KeepN())
		}
		if stats.KeepScanned+stats.LowerBounds != p.N {
			t.Errorf("keep=%v: keep %d + lower bounds %d != N %d",
				keep, stats.KeepScanned, stats.LowerBounds, p.N)
		}
		if stats.Pruned+stats.Candidates != stats.LowerBounds {
			t.Errorf("keep=%v: pruned %d + candidates %d != lower bounds %d",
				keep, stats.Pruned, stats.Candidates, stats.LowerBounds)
		}
		if stats.Ops.Instructions() <= 0 || stats.Ops.L1Loads() <= 0 {
			t.Errorf("keep=%v: empty op accounting", keep)
		}
	}
}

// TestFastScanPropertyAgainstNaive: randomized end-to-end equivalence
// over many shapes, keep values and grouping depths.
func TestFastScanPropertyAgainstNaive(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(3000) + 20
		k := []int{1, 5, 37, 128}[r.Intn(4)]
		p, tables := randomPartition(t, n, r.Uint64())
		want, _ := Naive(p, tables, k)
		fs, err := newLayout(p, scan.FastScanOptions{
			Keep:            []float64{0, 0.002, 0.05}[r.Intn(3)],
			GroupComponents: r.Intn(5) - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := Scan(fs, tables, k)
		sameResults(t, want, got, "naive", "fastscan")
	}
}

// TestFastScanSkewedTables exercises the pruning-heavy regime: distance
// tables with one clearly close centroid per sub-quantizer.
func TestFastScanSkewedTables(t *testing.T) {
	r := rng.New(6)
	n := 20000
	codes := make([]uint8, n*M)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	p := scan.NewPartition(codes, nil)
	// Portion-homogeneous tables: all 16 entries of a portion share a
	// level, which is what the §4.3 optimized assignment produces (nearby
	// centroids share a portion, so a query is roughly equidistant from
	// all of them). One portion per table is close to the query.
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for j := 0; j < M; j++ {
		row := tables.Row(j)
		for h := 0; h < 16; h++ {
			level := 1000 + r.Float32()*5000
			if h == r.Intn(16) {
				level = r.Float32() * 20
			}
			for i := 0; i < 16; i++ {
				row[h*16+i] = level + r.Float32()*50
			}
		}
	}
	want, _ := Libpq(p, tables, 10)
	fs, err := newLayout(p, scan.FastScanOptions{Keep: 0.01, GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, stats := Scan(fs, tables, 10)
	sameResults(t, want, got, "libpq", "fastscan")
	if stats.PrunedFraction() < 0.9 {
		t.Errorf("skewed tables pruned only %.1f%%", 100*stats.PrunedFraction())
	}
}

func TestQuantizationOnlyStats(t *testing.T) {
	p, tables := randomPartition(t, 3000, 4)
	res, stats := QuantizationOnly(p, tables, 20, 0.02)
	want, _ := Naive(p, tables, 20)
	sameResults(t, want, res, "naive", "quantonly")
	if stats.KeepScanned != 60 {
		t.Errorf("KeepScanned = %d, want 60", stats.KeepScanned)
	}
	if stats.Pruned+stats.Candidates != stats.LowerBounds {
		t.Error("quantonly accounting mismatch")
	}
}

// TestScan256AgreesWithScan: the AVX2 widening must return bit-identical
// results to the 128-bit kernel and to the exact baselines, across
// shapes and odd block counts.
func TestScan256AgreesWithScan(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 25; trial++ {
		n := r.Intn(4000) + 10
		k := []int{1, 9, 64}[r.Intn(3)]
		p, tables := randomPartition(t, n, r.Uint64())
		want, _ := Naive(p, tables, k)
		fs, err := newLayout(p, scan.FastScanOptions{
			Keep:            []float64{0, 0.01}[r.Intn(2)],
			GroupComponents: r.Intn(5) - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, stats := Scan256(fs, tables, k)
		sameResults(t, want, got, "naive", "fastscan256")
		if stats.Pruned+stats.Candidates != stats.LowerBounds {
			t.Fatalf("trial %d: scan256 accounting mismatch", trial)
		}
		if stats.KeepScanned+stats.LowerBounds != p.N {
			t.Fatalf("trial %d: scan256 coverage mismatch", trial)
		}
	}
}

// TestScan256CheaperFrontend: per scanned vector, the wide kernel's
// modeled instruction count must be below the 128-bit kernel's.
func TestScan256CheaperFrontend(t *testing.T) {
	p, tables := randomPartition(t, 30000, 77)
	opt := scan.FastScanOptions{Keep: 0.01, GroupComponents: 2}
	fs, err := newLayout(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, s128 := Scan(fs, tables, 10)
	_, s256 := Scan256(fs, tables, 10)
	if s256.Ops.Instructions() >= s128.Ops.Instructions() {
		t.Errorf("scan256 instructions %.0f not below scan %.0f",
			s256.Ops.Instructions(), s128.Ops.Instructions())
	}
}

// TestGroupSkipFires pins a scan in which the group test prunes: one
// near portion on the grouped component, every other portion of it a
// thousand times farther. Once the near group is re-checked (it is
// visited first, on the least key bound), every other group's shared
// bound is above the threshold and no block of it is bounded. The
// serving scan on every backend must return Naive's answer with fewer
// groups and blocks than the layout holds, and both model widths must
// count every vector exactly as it does.
func TestGroupSkipFires(t *testing.T) {
	r := rng.New(17)
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for i := range tables.Data {
		tables.Data[i] = r.Float32() * 10
	}
	for i, row := 16, tables.Row(0); i < 256; i++ {
		row[i] = 1000 + r.Float32()*100
	}
	p, _ := randomPartition(t, 2000, 18)
	fs, err := newLayout(p, scan.FastScanOptions{GroupComponents: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := fs.Grouped()
	blocks := 0
	for _, grp := range g.Groups {
		blocks += grp.BlockCount
	}
	const k = 1
	want, _ := Naive(fs.Partition(), tables, k)
	model, modelStats := Scan(fs, tables, k)
	sameResults(t, want, model, "naive", "model")
	_, model256 := Scan256(fs, tables, k)
	sameCounters(t, model256, modelStats.Stats, "model256")
	for _, be := range dispatch.AvailableBackends() {
		got, st := fs.ScanNativeBackend(tables, k, nil, be)
		sameResults(t, want, got, "naive", be.String())
		sameCounters(t, modelStats, st, be.String())
		if st.Groups >= len(g.Groups) || st.Blocks >= blocks {
			t.Fatalf("%v: no group skipped: %d of %d groups, %d of %d blocks bounded", be, st.Groups, len(g.Groups), st.Blocks, blocks)
		}
		if st.LowerBounds != fs.Partition().N || st.Pruned+st.Candidates != st.LowerBounds {
			t.Fatalf("%v: a skipped lane went uncounted: %+v", be, st)
		}
	}
}

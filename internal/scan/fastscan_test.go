package scan

import (
	"math"
	"testing"
	"testing/quick"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
)

// TestDistQuantizerPerEntryBound is the core safety property of §4.4
// quantization: every quantized value q of v satisfies
// v >= qmin + q·delta, so sums of quantized entries lower-bound sums of
// true entries.
func TestDistQuantizerPerEntryBound(t *testing.T) {
	if err := quick.Check(func(qminRaw, qmaxRaw, vRaw float32) bool {
		// Squared L2 distances of byte-valued 128-dim vectors fit well
		// inside [0, 1e10]; fold arbitrary floats into that range.
		fold := func(x float32) float32 {
			return float32(math.Mod(math.Abs(float64(x)), 1e10))
		}
		qmin := fold(qminRaw)
		qmax := qmin + fold(qmaxRaw) + 1
		v := qmin + fold(vRaw)
		dq := NewDistQuantizer(qmin, qmax)
		q := dq.Quantize(v)
		if q > 127 {
			return false
		}
		return float64(v) >= dq.qmin+float64(q)*dq.delta
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDistQuantizerEndpoints(t *testing.T) {
	dq := NewDistQuantizer(10, 137) // delta = 1
	if got := dq.Quantize(10); got != 0 {
		t.Errorf("quantize(qmin) = %d, want 0", got)
	}
	if got := dq.Quantize(137); got != 127 {
		t.Errorf("quantize(qmax) = %d, want 127", got)
	}
	if got := dq.Quantize(1e9); got != 127 {
		t.Errorf("quantize(huge) = %d, want 127", got)
	}
	if got := dq.Quantize(5); got != 0 {
		t.Errorf("quantize(below qmin) = %d, want clamp to 0", got)
	}
}

func TestDistQuantizerDegenerate(t *testing.T) {
	dq := NewDistQuantizer(5, 5) // qmax == qmin
	if got := dq.Quantize(123); got != 0 {
		t.Errorf("degenerate quantizer returned %d", got)
	}
	if got := dq.PruneThreshold(5, true); got != 127 {
		t.Errorf("degenerate threshold = %d, want 127 (no pruning)", got)
	}
}

// TestPruneThresholdSafety: whenever qsat > t for the returned t, the
// guaranteed lower bound 8·qmin + delta·qsat must strictly exceed min.
func TestPruneThresholdSafety(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 20000; trial++ {
		qmin := r.Float32() * 100
		qmax := qmin + r.Float32()*1000 + 0.001
		min := qmin*8 + r.Float32()*2000 - 500
		dq := NewDistQuantizer(qmin, qmax)
		t8 := dq.PruneThreshold(min, true)
		for _, qsat := range []int8{t8 + 1, 127} {
			if qsat <= t8 {
				continue // saturating beyond 127 impossible
			}
			lb := 8*dq.qmin + dq.delta*float64(qsat)
			if !(lb > float64(min)) {
				t.Fatalf("trial %d: t=%d qsat=%d lb=%v not > min=%v (qmin=%v qmax=%v)",
					trial, t8, qsat, lb, min, qmin, qmax)
			}
		}
	}
}

func TestPruneThresholdNoMin(t *testing.T) {
	dq := NewDistQuantizer(0, 100)
	if got := dq.PruneThreshold(50, false); got != 127 {
		t.Errorf("threshold without a full heap = %d, want 127", got)
	}
}

// TestPruneThresholdSaturationRule: once min <= qmax + 7·qmin, saturated
// lanes must be prunable (t <= 126).
func TestPruneThresholdSaturationRule(t *testing.T) {
	dq := NewDistQuantizer(10, 1000)
	if got := dq.PruneThreshold(1000, true); got > 126 {
		t.Errorf("min = qmax: t = %d, want <= 126 so saturated lanes prune", got)
	}
	// min far beyond the provable bound: no pruning of saturated lanes.
	if got := dq.PruneThreshold(1e9, true); got != 127 {
		t.Errorf("min >> qmax+7qmin: t = %d, want 127", got)
	}
}

// TestBuildMinTablesAreMinima verifies Figure 10: entry h is the true
// minimum of portion h, quantized, on every row — and, Quantize being
// monotone, the least entry of the quantized window a group with key h
// reads (windowMinima), which is what a group's key bound claims.
func TestBuildMinTablesAreMinima(t *testing.T) {
	r := rng.New(5)
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for i := range tables.Data {
		tables.Data[i] = r.Float32() * 500
	}
	dq := NewDistQuantizer(tables.Min(), tables.MaxSum())
	st := minTablesOf(tables, dq)
	for j := 0; j < M; j++ {
		row := tables.Row(j)
		var q [256]uint8
		for i, v := range row {
			q[i] = dq.Quantize(v)
		}
		if wm := windowMinima(&q); wm != st[j] {
			t.Fatalf("min table %d: %v, window minima of the quantized row %v", j, st[j], wm)
		}
		for h := 0; h < 16; h++ {
			m := row[h*16]
			for _, v := range row[h*16+1 : h*16+16] {
				if v < m {
					m = v
				}
			}
			if st[j][h] != dq.Quantize(m) {
				t.Fatalf("min table %d portion %d: %d, want quantize(%v)=%d",
					j, h, st[j][h], m, dq.Quantize(m))
			}
		}
	}
}

// TestLowerBoundNeverExceedsTrueDistance runs the block kernel's exact
// arithmetic over random data and checks the fundamental invariant on
// every vector: dequantized lower bound <= true ADC distance.
func TestLowerBoundNeverExceedsTrueDistance(t *testing.T) {
	p, tables := randomPartition(t, 4096, 123)
	fs, err := newLayout(p, FastScanOptions{Keep: 0.01, GroupComponents: 2})
	if err != nil {
		t.Fatal(err)
	}
	dq := NewDistQuantizer(tables.Min(), tables.MaxSum())
	st := minTablesOf(tables, dq)
	g := fs.Grouped()
	for _, grp := range g.Groups {
		var groupTables [4][16]uint8
		for j := 0; j < fs.c; j++ {
			// S_j of the group: the quantized portion of row j its key
			// selects (Figure 13).
			for i, v := range tables.Row(j)[int(grp.Key[j])*16 : int(grp.Key[j])*16+16] {
				groupTables[j][i] = dq.Quantize(v)
			}
		}
		for pos := grp.Start; pos < grp.Start+grp.Count; pos++ {
			code := g.Code(pos)
			sum := 0
			for j := 0; j < fs.c; j++ {
				sum += int(groupTables[j][code[j]&0x0f])
			}
			for j := fs.c; j < M; j++ {
				sum += int(st[j][code[j]>>4])
			}
			if sum > 127 {
				sum = 127
			}
			lb := 8*dq.qmin + dq.delta*float64(sum)
			trueD := float64(ADC8(code, tables))
			if lb > trueD+1e-3 {
				t.Fatalf("lower bound %v exceeds true distance %v", lb, trueD)
			}
		}
	}
}

// TestFastScanStatsAccounting: scanned = keep + lower bounds (+ padding
// never counted), and pruned + candidates = lower bounds.
func TestFastScanStatsAccounting(t *testing.T) {
	p, tables := randomPartition(t, 5000, 9)
	for _, keep := range []float64{0, 0.01, 0.1} {
		fs, err := newLayout(p, FastScanOptions{Keep: keep, GroupComponents: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, stats := fs.ScanNativeBackend(tables, 10, nil, dispatch.Auto)
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
		fs, err := newLayout(p, FastScanOptions{
			Keep:            []float64{0, 0.002, 0.05}[r.Intn(3)],
			GroupComponents: r.Intn(5) - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		scanEveryBackend(t, fs, tables, k, want, "naive")
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
	p := NewPartition(codes, nil)
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
	want, _ := Naive(p, tables, 10)
	fs, err := newLayout(p, FastScanOptions{Keep: 0.01, GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	stats := scanEveryBackend(t, fs, tables, 10, want, "naive")
	if stats.PrunedFraction() < 0.9 {
		t.Errorf("skewed tables pruned only %.1f%%", 100*stats.PrunedFraction())
	}
}

func TestNewFastScanErrors(t *testing.T) {
	p, _ := randomPartition(t, 100, 1)
	if _, err := NewFastScan(p, FastScanOptions{Keep: -0.1}); err == nil {
		t.Error("negative keep accepted")
	}
	if _, err := NewFastScan(p, FastScanOptions{Keep: 1.5}); err == nil {
		t.Error("keep >= 1 accepted")
	}
	if _, err := NewFastScan(p, FastScanOptions{GroupComponents: 9}); err == nil {
		t.Error("c=9 accepted")
	}
}

// TestGroupedCustomIDs: ids given with a partition's rows follow them
// through Ordered and the grouped layout — the row at every position of
// the laid-out base holds the code its id came with — and are held as
// 4-byte offsets from the smallest, none spilled.
func TestGroupedCustomIDs(t *testing.T) {
	p, _ := randomPartition(t, 1000, 3)
	codes := p.FlatCodes()
	ids := make([]int64, p.N)
	for i := range ids {
		ids[i] = int64(1000 + i)
	}
	fs, err := newLayout(NewPartition(codes, ids), FastScanOptions{Keep: DefaultKeep, GroupComponents: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := fs.Partition()
	seen := make([]bool, p.N)
	for pos := 0; pos < q.N; pos++ {
		orig := int(q.ID(pos)) - 1000
		if orig < 0 || orig >= p.N || seen[orig] {
			t.Fatalf("position %d holds id %d", pos, q.ID(pos))
		}
		seen[orig] = true
		if q.Code(pos) != [M]uint8(codes[orig*M:]) {
			t.Fatalf("position %d: id %d does not hold its code", pos, q.ID(pos))
		}
	}
	if q.IDBytes() != 4*q.N {
		t.Fatalf("%d id bytes for %d rows, want 4 a row", q.IDBytes(), q.N)
	}
}

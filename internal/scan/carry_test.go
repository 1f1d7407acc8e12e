package scan

import (
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// cell is one probed partition of a synthetic multi-probe query: its
// own codes and ids, its own distance tables (a real query has one
// residual per cell), its Fast Scan layout.
type cell struct {
	p  *Partition
	t  quantizer.Tables
	fs *FastScan
}

// newCell builds a cell of n random codes whose ids start at firstID.
func newCell(t *testing.T, r *rng.Source, n int, firstID int64, tables quantizer.Tables, opt FastScanOptions) cell {
	t.Helper()
	codes := make([]uint8, n*M)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = firstID + int64(i)
	}
	p := NewPartition(codes, ids)
	fs, err := newLayout(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cell{p: fs.Partition(), t: tables, fs: fs}
}

// uniformTables fills every entry with lo + U[0, span).
func uniformTables(r *rng.Source, lo, span float32) quantizer.Tables {
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for i := range tables.Data {
		tables.Data[i] = lo + r.Float32()*span
	}
	return tables
}

// naiveOver is the oracle of a multi-probe query: every cell scanned on
// its own with Algorithm 1, the per-cell answers merged.
func naiveOver(cells []cell, k int) []topk.Result {
	heap := topk.New(k)
	for _, c := range cells {
		res, _ := Naive(c.p, c.t, k)
		for _, r := range res {
			heap.Push(r.ID, r.Distance)
		}
	}
	return heap.Results()
}

// carried scans the cells in order into one heap with scanInto and
// returns the answer and each cell's statistics.
func carried(cells []cell, k int, scanInto func(c cell, heap *topk.Heap) Stats) ([]topk.Result, []Stats) {
	heap := topk.New(k)
	stats := make([]Stats, len(cells))
	for i, c := range cells {
		stats[i] = scanInto(c, heap)
	}
	return heap.Results(), stats
}

// everyBackend runs check once per way of continuing a heap: every
// available backend (internal/scan/model adds its two widths).
func everyBackend(check func(name string, scanInto func(c cell, heap *topk.Heap) Stats)) {
	for _, be := range dispatch.AvailableBackends() {
		be, sc := be, NewScratch()
		check(be.String(), func(c cell, heap *topk.Heap) Stats { return c.fs.ScanNativeInto(c.t, heap, sc, be) })
	}
}

// TestCarriedScanFuzz is the multi-probe leg of the exactness property:
// two to four cells of random size and table shape, random tombstones,
// every grouping depth, scanned in order into
// one heap. Every backend must reach the oracle's answer with the same
// per-cell counters — carrying changes how much is pruned, never what
// is returned or whether the backends agree on it.
func TestCarriedScanFuzz(t *testing.T) {
	r := rng.New(20261002)
	for iter := 0; iter < 40; iter++ {
		k := []int{1, 10, 100, 500}[r.Intn(4)]
		cells := make([]cell, 2+r.Intn(3))
		var nextID int64
		for i := range cells {
			n := r.Intn(4000) + 1
			cells[i] = newCell(t, r, n, nextID, randomTablesShape(r, r.Intn(4)), FastScanOptions{
				Keep:            []float64{0, 0.005, 0.06}[r.Intn(3)],
				GroupComponents: r.Intn(5) - 1,
			})
			nextID += int64(n)
			if r.Intn(2) == 0 {
				for row := 0; row < n; row += 3 + r.Intn(17) {
					cells[i].p, cells[i].fs = tombstone(cells[i].p, cells[i].fs, row)
				}
			}
		}
		want := naiveOver(cells, k)
		var first []Stats
		everyBackend(func(name string, scanInto func(cell, *topk.Heap) Stats) {
			got, stats := carried(cells, k, scanInto)
			sameResults(t, want, got, "naive-merged", "carried:"+name)
			if first == nil {
				first = stats
			}
			for i := range stats {
				sameStats(t, first[i], stats[i], "carried:first", "carried:"+name)
			}
		})
	}
}

// TestCarriedThresholdOutOfReach forces a carried threshold below the
// second cell's least possible distance: the cell's grouped region must
// be skipped outright — accounted as pruned, no group visited, no exact
// re-check — on every backend, with the answer still the oracle's.
func TestCarriedThresholdOutOfReach(t *testing.T) {
	r := rng.New(7)
	opt := FastScanOptions{Keep: 0.01, GroupComponents: 2}
	near := newCell(t, r, 3000, 0, uniformTables(r, 0, 10), opt)
	far := newCell(t, r, 3000, 3000, uniformTables(r, 1000, 100), opt)
	cells := []cell{near, far}
	want := naiveOver(cells, 10)
	everyBackend(func(name string, scanInto func(cell, *topk.Heap) Stats) {
		got, stats := carried(cells, 10, scanInto)
		sameResults(t, want, got, "naive-merged", name)
		st := stats[1]
		if st.Candidates != 0 || st.Groups != 0 || st.Blocks != 0 {
			t.Fatalf("%s: out-of-reach cell was scanned: %+v", name, st)
		}
		if n := far.fs.Grouped().N; st.LowerBounds != n || st.Pruned != n || st.KeepScanned+n != st.Scanned {
			t.Fatalf("%s: out-of-reach cell misaccounted: %+v", name, st)
		}
	})
}

// TestCarriedThresholdTieStillScans pins the boundary of the rule: a
// threshold EQUAL to the cell's least possible distance is not below
// it. Every distance in both cells is the same, so the answer is
// decided by id alone — and the second cell holds the smaller ids.
func TestCarriedThresholdTieStillScans(t *testing.T) {
	r := rng.New(8)
	flat := uniformTables(r, 1, 0)
	opt := FastScanOptions{Keep: 0.01, GroupComponents: 1}
	cells := []cell{newCell(t, r, 500, 1000, flat, opt), newCell(t, r, 500, 0, flat, opt)}
	want := naiveOver(cells, 10)
	if want[0].ID != 0 || want[9].ID != 9 {
		t.Fatalf("fixture: oracle answer %+v is not the ten smallest ids", want)
	}
	everyBackend(func(name string, scanInto func(cell, *topk.Heap) Stats) {
		got, _ := carried(cells, 10, scanInto)
		sameResults(t, want, got, "naive-merged", name)
	})
}

// TestCarriedQmaxKeepsPruning forces the other degenerate carry: a
// threshold at or below the second cell's smallest table entry (so the
// heap-derived qmax would collapse the quantizer and switch pruning
// off) while the cell is still within reach (negative entries put its
// least distance far below that). Pruning must stay on.
func TestCarriedQmaxKeepsPruning(t *testing.T) {
	r := rng.New(9)
	opt := FastScanOptions{Keep: 0.01, GroupComponents: 2}
	first := newCell(t, r, 3000, 0, uniformTables(r, -20, 10), opt)      // distances in [-160, -80)
	second := newCell(t, r, 3000, 3000, uniformTables(r, -50, 100), opt) // entries >= -50, distances from ~-400
	cells := []cell{first, second}

	heap := topk.New(10)
	first.fs.ScanNativeInto(first.t, heap, nil, dispatch.Auto)
	thr, _ := heap.Threshold()
	qmin, least := tableMinima(second.t)
	if !(least <= thr && thr <= qmin) {
		t.Fatalf("fixture: want least %v <= threshold %v <= qmin %v", least, thr, qmin)
	}

	want := naiveOver(cells, 10)
	everyBackend(func(name string, scanInto func(cell, *topk.Heap) Stats) {
		got, stats := carried(cells, 10, scanInto)
		sameResults(t, want, got, "naive-merged", name)
		if st := stats[1]; st.Pruned == 0 || st.Groups == 0 {
			t.Fatalf("%s: carried qmax disabled pruning: %+v", name, st)
		}
	})
}

// TestCarriedHeapPrunesMore is the behaviour the carry exists for, not
// just its equivalence: the second cell of a query, scanned into the
// heap the first cell filled, prunes strictly more than the same cell
// scanned from empty. The fixture makes that necessary: both cells see
// the same portion-structured tables (the shape the paper's pruning
// feeds on) but the first is thirty times larger, so its k-th distance
// is far tighter than anything the second cell's keep region — or its
// whole content — can offer, yet within the second cell's reach (the
// cell is scanned, not skipped). From empty, the second cell must
// re-check at least the k members of its own answer; carried, only
// what its lower bounds leave under the first cell's threshold.
func TestCarriedHeapPrunesMore(t *testing.T) {
	r := rng.New(10)
	opt := FastScanOptions{Keep: DefaultKeep, GroupComponents: -1}
	const k = 100
	tables := randomTablesShape(r, 0)
	big := newCell(t, r, 60000, 0, tables, opt)
	small := newCell(t, r, 2000, 60000, tables, opt)
	everyBackend(func(name string, scanInto func(cell, *topk.Heap) Stats) {
		_, alone := carried([]cell{small}, k, scanInto)
		_, after := carried([]cell{big, small}, k, scanInto)
		if after[1].Groups == 0 {
			t.Fatalf("%s: fixture: second cell out of reach, nothing compared: %+v", name, after[1])
		}
		if after[1].Pruned <= alone[0].Pruned {
			t.Fatalf("%s: carried threshold pruned %d of %d, from empty %d", name,
				after[1].Pruned, after[1].LowerBounds, alone[0].Pruned)
		}
		t.Logf("%s: second cell pruned %d carried, %d from empty, of %d", name,
			after[1].Pruned, alone[0].Pruned, after[1].LowerBounds)
	})
}

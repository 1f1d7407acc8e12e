package model

import (
	"testing"

	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/topk"
)

// pinCells builds the fixture of TestModelScansPinned at grouping depth
// c: three cells probed in order, the first with portion-structured
// tables (heavy pruning) and a tombstone every seventh row, the second
// with uniform tables (little pruning), the third with tables on which
// the group test prunes at c > 0; a 1 % keep region in each. At c = 0
// each cell is one group whose last block is partial; at c = 2 most
// groups are one partial block.
func pinCells(t *testing.T, c int) []cell {
	t.Helper()
	r := rng.New(43)
	opt := scan.FastScanOptions{Keep: 0.01, GroupComponents: c}
	cells := []cell{
		newCell(t, r, 2110, 0, randomTablesShape(r, 0), opt),
		newCell(t, r, 1690, 2110, randomTablesShape(r, 1), opt),
		newCell(t, r, 1690, 3800, skipTables(r), opt),
	}
	for row := 0; row < cells[0].p.N; row += 7 {
		cells[0].p, cells[0].fs = tombstone(cells[0].p, cells[0].fs, row)
	}
	if c == 0 {
		for i, cl := range cells {
			grp := cl.fs.Grouped().Groups[0]
			if grp.Count%16 == 0 {
				t.Fatalf("cell %d: %d vectors in %d blocks, want a partial last block", i, grp.Count, grp.BlockCount)
			}
		}
	}
	return cells
}

// skipTables are the tables of TestGroupSkipFires: entries below 10,
// but one near portion on component 0, every other portion of it a
// hundred times farther, so at c > 0 the group test prunes.
func skipTables(r *rng.Source) quantizer.Tables {
	tables := uniformTables(r, 0, 10)
	for i, row := 16, tables.Row(0); i < 256; i++ {
		row[i] = 1000 + r.Float32()*100
	}
	return tables
}

// pinned is one scan's full record: the seven counters and the
// operation mix.
type pinned struct {
	stats scan.Stats
	ops   perf.OpCounts
}

// TestModelScansPinned holds the model scans' counters and operation
// mixes to fixed values, cell by cell of a carried three-cell query, at
// c = 0 and c = 2, k = 10: ScanInto and ScanExactInto continue one
// heap across the cells; QuantizationOnly scans each cell from an
// empty heap. The values are the model's figures; a change to
// how the scans are written must leave every one of them in place.
func TestModelScansPinned(t *testing.T) {
	const k = 10
	into := []struct {
		name string
		scan func(*scan.FastScan, quantizer.Tables, *topk.Heap) Stats
	}{
		{"ScanInto", ScanInto},
		{"ScanExactInto", ScanExactInto},
	}
	for _, c := range []int{0, 2} {
		cells := pinCells(t, c)
		var got []pinned
		for _, v := range into {
			heap := topk.New(k)
			for _, cl := range cells {
				st := v.scan(cl.fs, cl.t, heap)
				got = append(got, pinned{st.Stats, st.Ops})
			}
		}
		for _, cl := range cells {
			_, st := QuantizationOnly(cl.p, cl.t, k, 0.01)
			got = append(got, pinned{st.Stats, st.Ops})
		}
		want := pinnedModelScans[c]
		if len(want) != len(got) {
			t.Fatalf("c=%d: %d records, want %d", c, len(got), len(want))
		}
		for i := range got {
			name := "QuantizationOnly"
			if v := i / len(cells); v < len(into) {
				name = into[v].name
			}
			if got[i] != want[i] {
				t.Errorf("c=%d %s cell %d:\n got  %#v\n      %#v\n want %#v\n      %#v",
					c, name, i%len(cells), got[i].stats, got[i].ops, want[i].stats, want[i].ops)
			}
		}
	}
}

// pinnedModelScans is TestModelScansPinned's record by grouping depth:
// ScanInto, ScanExactInto (three carried cells each), then
// QuantizationOnly (one per cell).
var pinnedModelScans = map[int][]pinned{
	0: {
		{scan.Stats{Scanned: 2110, KeepScanned: 21, LowerBounds: 2089, Pruned: 2029, Candidates: 60, Groups: 1, Blocks: 131}, perf.OpCounts{ScalarLoad8: 128, ScalarLoad64: 81, ScalarLoadF: 2696, ScalarALU: 6435, ScalarBranch: 425, SIMDLoad: 1048, SIMDALU: 3013, SIMDShuffle: 1048, SIMDCompare: 131, SIMDMovmsk: 131}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Candidates: 1674, Groups: 1, Blocks: 105}, perf.OpCounts{ScalarLoad8: 128, ScalarLoad64: 1690, ScalarLoadF: 15568, ScalarALU: 44999, ScalarBranch: 3591, SIMDLoad: 840, SIMDALU: 2415, SIMDShuffle: 840, SIMDCompare: 105, SIMDMovmsk: 105}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1494, Candidates: 180, Groups: 1, Blocks: 105}, perf.OpCounts{ScalarLoad8: 128, ScalarLoad64: 196, ScalarLoadF: 3616, ScalarALU: 9143, ScalarBranch: 603, SIMDLoad: 840, SIMDALU: 2415, SIMDShuffle: 840, SIMDCompare: 105, SIMDMovmsk: 105}},
		{scan.Stats{Scanned: 2110, KeepScanned: 21, LowerBounds: 2089, Pruned: 2030, Candidates: 59, Groups: 1, Blocks: 131}, perf.OpCounts{ScalarLoad8: 128, ScalarLoad64: 80, ScalarLoadF: 2688, ScalarALU: 6145, ScalarBranch: 161, SIMDLoad: 786, SIMDALU: 818.75, SIMDShuffle: 524, SIMDCompare: 32.75, SIMDMovmsk: 32.75}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1602, Candidates: 72, Groups: 1, Blocks: 105}, perf.OpCounts{ScalarLoad8: 128, ScalarLoad64: 88, ScalarLoadF: 2752, ScalarALU: 6337, ScalarBranch: 177, SIMDLoad: 630, SIMDALU: 656.25, SIMDShuffle: 420, SIMDCompare: 26.25, SIMDMovmsk: 26.25}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1531, Candidates: 143, Groups: 1, Blocks: 105}, perf.OpCounts{ScalarLoad8: 128, ScalarLoad64: 159, ScalarLoadF: 3320, ScalarALU: 8041, ScalarBranch: 319, SIMDLoad: 630, SIMDALU: 656.25, SIMDShuffle: 420, SIMDCompare: 26.25, SIMDMovmsk: 26.25}},
		{scan.Stats{Scanned: 2110, KeepScanned: 21, LowerBounds: 2089, Pruned: 2032, Candidates: 57}, perf.OpCounts{ScalarLoad8: 16712, ScalarLoad64: 2167, ScalarLoadF: 2672, ScalarALU: 43570, ScalarBranch: 4334}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1607, Candidates: 67}, perf.OpCounts{ScalarLoad8: 13392, ScalarLoad64: 1757, ScalarLoadF: 2712, ScalarALU: 36220, ScalarBranch: 3514}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1534, Candidates: 140}, perf.OpCounts{ScalarLoad8: 13392, ScalarLoad64: 1830, ScalarLoadF: 3296, ScalarALU: 37972, ScalarBranch: 3660}},
	},
	2: {
		{scan.Stats{Scanned: 2110, KeepScanned: 21, LowerBounds: 2089, Pruned: 2048, Candidates: 41, Groups: 256, Blocks: 258}, perf.OpCounts{ScalarLoad8: 1120, ScalarLoad64: 62, ScalarLoadF: 10736, ScalarALU: 8516, ScalarBranch: 1160, SIMDLoad: 2576, SIMDALU: 5934, SIMDShuffle: 2064, SIMDCompare: 258, SIMDMovmsk: 258}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 24, Candidates: 1650, Groups: 256, Blocks: 256}, perf.OpCounts{ScalarLoad8: 1120, ScalarLoad64: 1666, ScalarLoadF: 23568, ScalarALU: 47008, ScalarBranch: 4364, SIMDLoad: 2560, SIMDALU: 5888, SIMDShuffle: 2048, SIMDCompare: 256, SIMDMovmsk: 256}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1565, Candidates: 109, Groups: 16, Blocks: 17}, perf.OpCounts{ScalarLoad8: 1120, ScalarLoad64: 125, ScalarLoadF: 3560, ScalarALU: 8586, ScalarBranch: 804, SIMDLoad: 168, SIMDALU: 391, SIMDShuffle: 136, SIMDCompare: 17, SIMDMovmsk: 17}},
		{scan.Stats{Scanned: 2110, KeepScanned: 21, LowerBounds: 2089, Pruned: 2048, Candidates: 41, Groups: 256, Blocks: 258}, perf.OpCounts{ScalarLoad8: 1120, ScalarLoad64: 62, ScalarLoadF: 2544, ScalarALU: 6976, ScalarBranch: 644, SIMDLoad: 1290, SIMDALU: 1870.5, SIMDShuffle: 903, SIMDCompare: 64.5, SIMDMovmsk: 64.5}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1594, Candidates: 80, Groups: 256, Blocks: 256}, perf.OpCounts{ScalarLoad8: 1120, ScalarLoad64: 96, ScalarLoadF: 2816, ScalarALU: 7792, ScalarBranch: 712, SIMDLoad: 1280, SIMDALU: 1856, SIMDShuffle: 896, SIMDCompare: 64, SIMDMovmsk: 64}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1566, Candidates: 108, Groups: 16, Blocks: 17}, perf.OpCounts{ScalarLoad8: 1120, ScalarLoad64: 124, ScalarLoadF: 3040, ScalarALU: 8464, ScalarBranch: 768, SIMDLoad: 85, SIMDALU: 123.25, SIMDShuffle: 59.5, SIMDCompare: 4.25, SIMDMovmsk: 4.25}},
		{scan.Stats{Scanned: 2110, KeepScanned: 21, LowerBounds: 2089, Pruned: 2003, Candidates: 86}, perf.OpCounts{ScalarLoad8: 16712, ScalarLoad64: 2196, ScalarLoadF: 2904, ScalarALU: 44266, ScalarBranch: 4392}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1601, Candidates: 73}, perf.OpCounts{ScalarLoad8: 13392, ScalarLoad64: 1763, ScalarLoadF: 2760, ScalarALU: 36364, ScalarBranch: 3526}},
		{scan.Stats{Scanned: 1690, KeepScanned: 16, LowerBounds: 1674, Pruned: 1566, Candidates: 108}, perf.OpCounts{ScalarLoad8: 13392, ScalarLoad64: 1798, ScalarLoadF: 3040, ScalarALU: 37204, ScalarBranch: 3596}},
	},
}

package model

import (
	"pqfastscan/internal/layout"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd"
	"pqfastscan/internal/topk"
)

// Scan runs PQ Fast Scan over fs for the query described by its distance
// tables, returning the k nearest neighbors — bit-identical to the PQ
// Scan kernels — and the dynamic statistics of the run: ScanInto from an
// empty heap.
func Scan(fs *scan.FastScan, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	heap := topk.New(k)
	stats := ScanInto(fs, t, heap)
	return heap.Results(), stats
}

// ScanInto is the model's PQ Fast Scan: it continues the query's running
// top-k in heap over fs's partition, exactly as scan.ScanNativeInto does
// — same bounds, groups in the same order (scan.VisitOrder), same
// decision sequence, so heap evolution and counters agree with the
// serving scan, carried or not. Each block is bounded on its own by the
// minimum tables in 128-bit registers.
func ScanInto(fs *scan.FastScan, t quantizer.Tables, heap *topk.Heap) Stats {
	c := fs.GroupComponents()
	return fastScan(fs, t, heap, variant{
		perBlock: perBlock(c),
		perGroup: groupLoad(c),
		bound:    newMinTableBound,
	})
}

// ScanExact is ScanExactInto from an empty heap.
func ScanExact(fs *scan.FastScan, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	heap := topk.New(k)
	stats := ScanExactInto(fs, t, heap)
	return heap.Results(), stats
}

// ScanExactInto is ScanInto under the exact 8-bit bound of
// asm-avx512vbmi (dispatch.AccumulateExact): every lane bounded by its
// whole code, each component looked up in its quantized distance-table
// row — the bound of the quantization-only ablation (QuantizationOnly),
// on the grouped layout. The counters equal those of a serving scan on
// a backend of this bound, carried heap or not.
func ScanExactInto(fs *scan.FastScan, t quantizer.Tables, heap *topk.Heap) Stats {
	return fastScan(fs, t, heap, variant{
		perBlock: exactPerBlock(fs.GroupComponents()),
		bound:    newExactBound,
	})
}

// variant is what one model Fast Scan supplies to fastScan, the loop
// they share: how a block is bounded, and its operation mix.
type variant struct {
	// perBlock is the operation mix of bounding one block; perGroup
	// that of preparing a bounded group.
	perBlock, perGroup perf.OpCounts
	// bound builds the query's block bound once its quantizer and
	// minimum tables are known.
	bound func(fs *scan.FastScan, t quantizer.Tables, dq scan.DistQuantizer, minTables *[M][16]uint8) blockBound
}

// blockBound lower-bounds the lanes of a group's blocks.
type blockBound interface {
	// group prepares the bound for grp's blocks.
	group(grp *layout.Group)
	// block returns the mask of the lanes of grp's block b whose lower
	// bound exceeds the quantized threshold t8.
	block(grp *layout.Group, b int, t8 int8) uint16
}

// fastScan is §4's loop. Phase 1 (§4.4) is a plain PQ Scan of the keep
// region that yields the bounds of the distance quantizer; phase 2
// builds the query-lifetime minimum tables (Figure 10), quantizing the
// 8x256 table entries and reducing the portions in one pass over the
// distance tables. Then the groups are visited in the serving scan's
// order (scan.VisitOrder: the few of least key bound first, the rest in
// key order); a group its shared bound prunes whole is not bounded —
// every lane lower-bounded and pruned, as in the serving scan. The
// blocks of every other group are bounded one at a time, each at the
// threshold its entry reads, tombstoned lanes excluded like pruned
// ones, and each surviving lane is a candidate: an exact pqdistance
// re-check (right-hand path of Figure 6), then a threshold refresh if
// the heap changed. The scan.KeepBounds, quantizer, threshold rule,
// group test and order are internal/scan's, shared with every backend
// and the ablations.
func fastScan(fs *scan.FastScan, t quantizer.Tables, heap *topk.Heap, v variant) Stats {
	scan.Check8x8(t)
	part, plain, c := fs.Partition(), fs.PlainScanned(), fs.GroupComponents()
	stats := Stats{Stats: scan.Stats{Scanned: part.N, KeepScanned: plain}}

	var mins scan.WindowMinima
	mins.Fill(t)
	qmin, qmax, out := scan.KeepBounds(part, fs.KeepN(), fs.Covered(), t, &mins, heap)
	stats.Ops.Add(libpqPerVector.Scale(float64(plain)))
	if out {
		fs.OutOfReach(&stats.Stats)
		return stats
	}
	dq := scan.NewDistQuantizer(qmin, qmax)
	minTables := scan.BuildMinTables(&mins, dq)
	bound := v.bound(fs, t, dq, &minTables)
	stats.Ops.Add(tablePass)

	thrVal, haveThr := heap.Threshold()
	t8 := dq.PruneThreshold(thrVal, haveThr)

	g := fs.Grouped()
	gb := scan.NewGroupBounds(&minTables, c)
	order := fs.VisitOrder(&gb, nil)
	stats.Ops.Add(visitOrderOps(c, len(order)))
	stats.Ops.Add(groupTestOps(c, len(order)))
	for _, gi := range order {
		grp := g.Groups[gi]
		if gb.Prunes(&grp.Key, t8) {
			stats.LowerBounds += grp.Count
			stats.Pruned += grp.Count
			continue
		}
		stats.Groups++
		bound.group(&grp)
		for b := 0; b < grp.BlockCount; b++ {
			mask := bound.block(&grp, b, t8) | fs.DeadLanes(grp.BlockStart+b)
			base := grp.Start + b*layout.BlockVectors
			valid := min(grp.Count-b*layout.BlockVectors, layout.BlockVectors)
			stats.Blocks++
			stats.LowerBounds += valid
			for lane := 0; lane < valid; lane++ {
				if mask&(1<<lane) != 0 {
					stats.Pruned++
					continue
				}
				stats.Candidates++
				pos := base + lane
				d := scan.ADC8(g.LaneCode(&grp, pos), t)
				if heap.Push(part.ID(fs.KeepN()+pos), d) {
					if thr, ok := heap.Threshold(); ok {
						t8 = dq.PruneThreshold(thr, true)
					}
				}
			}
		}
	}
	// Aggregate operation accounting (hoisted out of the hot loop): the
	// per-block mix, the per-group preparation, and one exact re-check
	// per surviving candidate.
	stats.Ops.Add(v.perBlock.Scale(float64(stats.Blocks)))
	stats.Ops.Add(v.perGroup.Scale(float64(stats.Groups)))
	stats.Ops.Add(libpqPerVector.Scale(float64(stats.Candidates)))
	return stats
}

// minTableBound is the paper's bound (§4.5) executed instruction by
// instruction through internal/simd: grouped components look their 4
// least significant bits up in the group's small tables S_0..S_{C-1};
// ungrouped components their 4 most significant bits in the minimum
// tables; the lookups are added with saturation and compared against
// the threshold (Figure 6).
type minTableBound struct {
	g           *layout.Grouped
	t           quantizer.Tables
	dq          scan.DistQuantizer
	c           int
	minTables   *[M][16]uint8
	groupTables [layout.MaxGroupComponents]simd.Reg
}

func newMinTableBound(fs *scan.FastScan, t quantizer.Tables, dq scan.DistQuantizer, minTables *[M][16]uint8) blockBound {
	return &minTableBound{g: fs.Grouped(), t: t, dq: dq, c: fs.GroupComponents(), minTables: minTables}
}

// group loads the group's small tables S_0..S_{C-1}: portion key of
// distance table j, quantized (the solid arrows of Figure 13).
func (mb *minTableBound) group(grp *layout.Group) {
	for j := 0; j < mb.c; j++ {
		key := int(grp.Key[j])
		for i, v := range mb.t.Row(j)[key*16 : key*16+16] {
			mb.groupTables[j][i] = mb.dq.Quantize(v)
		}
	}
}

func (mb *minTableBound) block(grp *layout.Group, b int, t8 int8) uint16 {
	blk := grp.BlockStart + b
	var acc simd.Reg
	var nibbles [layout.BlockVectors]uint8
	for j := 0; j < M; j++ {
		var lookup simd.Reg
		if j < mb.c {
			mb.g.LowNibbles(blk, j, &nibbles)
			lookup = simd.Pshufb(mb.groupTables[j], simd.Load(nibbles[:]))
		} else {
			comps := simd.Load(mb.g.FullComponents(blk, j))
			hi := simd.Pand(simd.Psrlw4(comps), simd.LowNibbleBits())
			lookup = simd.Pshufb(mb.minTables[j], hi)
		}
		if j == 0 {
			acc = lookup
		} else {
			acc = simd.PaddsB(acc, lookup)
		}
	}
	return simd.PmovmskB(simd.PcmpgtB(acc, simd.Broadcast(uint8(t8))))
}

// exactBound bounds each lane by the sum, saturated at 127, of its
// code's entries in the quantized distance-table rows, all 2 048 of
// them quantized once a query.
type exactBound struct {
	g    *layout.Grouped
	rows [M][256]uint8
}

func newExactBound(fs *scan.FastScan, t quantizer.Tables, dq scan.DistQuantizer, _ *[M][16]uint8) blockBound {
	eb := &exactBound{g: fs.Grouped()}
	for j := range eb.rows {
		for i, v := range t.Row(j) {
			eb.rows[j][i] = dq.Quantize(v)
		}
	}
	return eb
}

func (eb *exactBound) group(*layout.Group) {}

func (eb *exactBound) block(grp *layout.Group, b int, t8 int8) uint16 {
	var pruned uint16
	base := grp.Start + b*layout.BlockVectors
	for lane := range min(grp.Count-b*layout.BlockVectors, layout.BlockVectors) {
		s := 0
		for j, x := range eb.g.LaneCode(grp, base+lane) {
			s += int(eb.rows[j][x])
		}
		if int8(min(s, 127)) > t8 {
			pruned |= 1 << lane
		}
	}
	return pruned
}

// perBlock is the operation mix of one 128-bit block iteration: c
// packed-nibble loads plus (8-c) full-byte loads, nibble unpacking (2
// ops per grouped component) and high-nibble extraction (psrlw+pand per
// ungrouped component), 8 pshufb lookups, 7 saturated additions, one
// compare, one movemask, and scalar mask/loop handling.
func perBlock(c int) perf.OpCounts {
	return perf.OpCounts{
		SIMDLoad:     8,
		SIMDALU:      float64(2*c+2*(M-c)) + 7,
		SIMDShuffle:  8,
		SIMDCompare:  1,
		SIMDMovmsk:   1,
		ScalarALU:    2,
		ScalarBranch: 2,
	}
}

// groupLoad is the operation mix of loading a group's c small tables.
func groupLoad(c int) perf.OpCounts {
	return perf.OpCounts{
		SIMDLoad:    float64(c),
		ScalarALU:   4,
		ScalarLoadF: float64(16 * c),
	}
}

// exactPerBlock is one block's share of the asm-avx512vbmi kernel's
// iteration, which bounds four blocks in the 128-bit lanes of a zmm
// register: per grouped component the packed-byte load, the nibble
// unpack (psrlw, two pand, punpcklbw) and one pshufb; per ungrouped
// component the full-byte load, two 64-byte row loads (the other two
// halves are memory operands), the bit-7 mask, two vpermi2b, the merge;
// eight saturated adds, the min against 127, one compare into an opmask.
func exactPerBlock(c int) perf.OpCounts {
	u := float64(M - c)
	return perf.OpCounts{
		SIMDLoad:    float64(c) + 3*u,
		SIMDALU:     float64(4*c) + 2*u + M + 1,
		SIMDShuffle: float64(c) + 2*u,
		SIMDCompare: 1,
		SIMDMovmsk:  1,
	}.Scale(0.25)
}

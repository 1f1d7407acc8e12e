package model

import (
	"pqfastscan/internal/layout"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/topk"
)

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

// ScanExact is ScanExactInto from an empty heap.
func ScanExact(fs *scan.FastScan, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	heap := topk.New(k)
	stats := ScanExactInto(fs, t, heap)
	return heap.Results(), stats
}

// ScanExactInto is ScanInto under the exact 8-bit bound of
// asm-avx512vbmi (dispatch.AccumulateExact): the same keep phase,
// quantizer, threshold rule, group order (scan.VisitOrder) and group
// skip (scan.GroupBounds), but every lane bounded by its whole code,
// each component looked up in its quantized distance-table row — the
// bound of the quantization-only ablation (QuantizationOnly), on the
// grouped layout. A block's lanes are decided against the threshold at
// the block's first lane, as the serving loop decides them, so the
// counters equal those of a serving scan on a backend of this bound,
// carried heap or not.
func ScanExactInto(fs *scan.FastScan, t quantizer.Tables, heap *topk.Heap) Stats {
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

	// The minimum tables order and skip the groups; the quantized rows,
	// all 2 048 entries, bound the lanes.
	minTables := scan.BuildMinTables(&mins, dq)
	var rows [M][256]uint8
	for j := range rows {
		for i, v := range t.Row(j) {
			rows[j][i] = dq.Quantize(v)
		}
	}
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
		for b := 0; b < grp.BlockCount; b++ {
			stats.Blocks++
			blockIdx := grp.BlockStart + b
			valid := min(grp.Count-b*layout.BlockVectors, layout.BlockVectors)
			base := grp.Start + b*layout.BlockVectors
			stats.LowerBounds += valid

			var codes [layout.BlockVectors][M]uint8
			pruned := fs.DeadLanes(blockIdx)
			for lane := 0; lane < valid; lane++ {
				codes[lane] = g.LaneCode(&grp, base+lane)
				s := 0
				for j, x := range codes[lane] {
					s += int(rows[j][x])
				}
				if int8(min(s, 127)) > t8 {
					pruned |= 1 << lane
				}
			}
			for lane := 0; lane < valid; lane++ {
				if pruned&(1<<lane) != 0 {
					stats.Pruned++
					continue
				}
				stats.Candidates++
				d := scan.ADC8(codes[lane], t)
				if heap.Push(part.ID(fs.KeepN()+base+lane), d) {
					if thr, ok := heap.Threshold(); ok {
						t8 = dq.PruneThreshold(thr, true)
					}
				}
			}
		}
	}
	stats.Ops.Add(exactPerBlock(c).Scale(float64(stats.Blocks)))
	stats.Ops.Add(libpqPerVector.Scale(float64(stats.Candidates)))
	return stats
}

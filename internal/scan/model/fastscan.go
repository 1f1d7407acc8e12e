package model

import (
	"pqfastscan/internal/layout"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd"
	"pqfastscan/internal/topk"
)

// buildGroupTable quantizes portion key of distance table j (the solid
// arrows of Figure 13).
func buildGroupTable(t quantizer.Tables, j int, key uint8, dq scan.DistQuantizer) simd.Reg {
	row := t.Row(j)[int(key)*16 : int(key)*16+16]
	var reg simd.Reg
	for i, v := range row {
		reg[i] = dq.Quantize(v)
	}
	return reg
}

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
// serving scan, carried or not.
func ScanInto(fs *scan.FastScan, t quantizer.Tables, heap *topk.Heap) Stats {
	scan.Check8x8(t)
	part, plain, c := fs.Partition(), fs.PlainScanned(), fs.GroupComponents()
	stats := Stats{Stats: scan.Stats{Scanned: part.N, KeepScanned: plain}}

	// Phase 1 (§4.4): plain PQ Scan over the keep region to obtain the
	// temporary nearest neighbor bounding qmax. scan.KeepBounds is shared
	// with every backend and the ablations, so all paths quantize over
	// the same range.
	var mins scan.WindowMinima
	mins.Fill(t)
	qmin, qmax, out := scan.KeepBounds(part, fs.KeepN(), fs.Covered(), t, &mins, heap)
	stats.Ops.Add(libpqPerVector.Scale(float64(plain)))
	if out {
		fs.OutOfReach(&stats.Stats)
		return stats
	}
	dq := scan.NewDistQuantizer(qmin, qmax)

	// Phase 2: build the query-lifetime minimum tables (Figure 10):
	// S_C..S_7 for the blocks, rows 0..c-1 for the groups' key bounds.
	// Quantizing the 8x256 table entries and reducing the portions costs
	// one pass over the distance tables.
	minTables := scan.BuildMinTables(&mins, dq)
	stats.Ops.Add(tablePass)

	thrVal, haveThr := heap.Threshold()
	t8 := dq.PruneThreshold(thrVal, haveThr)
	thrReg := simd.Broadcast(uint8(t8))

	g := fs.Grouped()
	var groupTables [layout.MaxGroupComponents]simd.Reg
	var nibbles [layout.BlockVectors]uint8
	// Per-block operation mix of the inner loop: c packed-nibble loads
	// plus (8-c) full-byte loads, nibble unpacking (2 ops per grouped
	// component) and high-nibble extraction (psrlw+pand per ungrouped
	// component), 8 pshufb lookups, 7 saturated additions, one compare,
	// one movemask, and scalar mask/loop handling.
	perBlock := perf.OpCounts{
		SIMDLoad:     8,
		SIMDALU:      float64(2*c+2*(M-c)) + 7,
		SIMDShuffle:  8,
		SIMDCompare:  1,
		SIMDMovmsk:   1,
		ScalarALU:    2,
		ScalarBranch: 2,
	}

	// The groups in the serving scan's order (scan.VisitOrder): the few
	// of least key bound first, then the rest in key order.
	gb := scan.NewGroupBounds(&minTables, c)
	order := fs.VisitOrder(&gb, nil)
	stats.Ops.Add(visitOrderOps(c, len(order)))
	stats.Ops.Add(groupTestOps(c, len(order)))
	for _, gi := range order {
		grp := g.Groups[gi]
		// A group its shared bound prunes whole is not bounded: every
		// lane lower-bounded and pruned, as in the serving scan.
		if gb.Prunes(&grp.Key, t8) {
			stats.LowerBounds += grp.Count
			stats.Pruned += grp.Count
			continue
		}
		stats.Groups++
		// Load the group's small tables S_0..S_{C-1} (solid arrows of
		// Figure 13).
		for j := 0; j < c; j++ {
			groupTables[j] = buildGroupTable(t, j, grp.Key[j], dq)
		}

		for b := 0; b < grp.BlockCount; b++ {
			stats.Blocks++
			blockIdx := grp.BlockStart + b
			valid := grp.Count - b*layout.BlockVectors
			if valid > layout.BlockVectors {
				valid = layout.BlockVectors
			}

			// Lower-bound accumulation (§4.5): grouped components use the
			// 4 least significant bits against S_0..S_{C-1}; ungrouped
			// components use the 4 most significant bits against the
			// minimum tables.
			var acc simd.Reg
			first := true
			for j := 0; j < c; j++ {
				g.LowNibbles(blockIdx, j, &nibbles)
				idx := simd.Load(nibbles[:])
				lookup := simd.Pshufb(groupTables[j], idx)
				if first {
					acc = lookup
					first = false
				} else {
					acc = simd.PaddsB(acc, lookup)
				}
			}
			for j := c; j < M; j++ {
				comps := simd.Load(g.FullComponents(blockIdx, j))
				hi := simd.Pand(simd.Psrlw4(comps), simd.LowNibbleBits())
				lookup := simd.Pshufb(minTables[j], hi)
				if first {
					acc = lookup
					first = false
				} else {
					acc = simd.PaddsB(acc, lookup)
				}
			}

			// Compare against the quantized pruning threshold; lanes with
			// acc > t8 are pruned (Figure 6). Tombstoned lanes are
			// excluded without an exact distance computation, exactly
			// like a pruned lane.
			prunedMask := simd.PmovmskB(simd.PcmpgtB(acc, thrReg)) | fs.DeadLanes(blockIdx)

			base := grp.Start + b*layout.BlockVectors
			stats.LowerBounds += valid
			if prunedMask == 0xffff {
				stats.Pruned += valid
				continue
			}
			for lane := 0; lane < valid; lane++ {
				pos := base + lane
				if prunedMask&(1<<lane) != 0 {
					stats.Pruned++
					continue
				}
				// Candidate: exact pqdistance re-check (right-hand path
				// of Figure 6), then threshold refresh if the heap
				// changed.
				stats.Candidates++
				d := scan.ADC8(g.LaneCode(&grp, pos), t)
				if heap.Push(part.ID(fs.KeepN()+pos), d) {
					if thr, ok := heap.Threshold(); ok {
						nt := dq.PruneThreshold(thr, true)
						if nt != t8 {
							t8 = nt
							thrReg = simd.Broadcast(uint8(t8))
						}
					}
				}
			}
		}
	}
	// Aggregate operation accounting (hoisted out of the hot loop): the
	// per-block inner-loop mix, the per-group small-table loads, and one
	// exact re-check per surviving candidate.
	stats.Ops.Add(perBlock.Scale(float64(stats.Blocks)))
	stats.Ops.Add(perf.OpCounts{
		SIMDLoad:    float64(c),
		ScalarALU:   4,
		ScalarLoadF: float64(16 * c),
	}.Scale(float64(stats.Groups)))
	stats.Ops.Add(libpqPerVector.Scale(float64(stats.Candidates)))
	return stats
}

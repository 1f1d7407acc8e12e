package model

import (
	"pqfastscan/internal/layout"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd"
	"pqfastscan/internal/topk"
)

// Scan256 is the AVX2 widening of PQ Fast Scan anticipated by the
// paper's §6: each small table is duplicated into both 128-bit lanes of a
// 256-bit register (simd.Dup128), so every vpshufb performs 32 lookups
// and a pair of 16-vector blocks is lower-bounded per inner-loop
// iteration. Results are bit-identical to Scan and to the PQ Scan
// kernels; only the operation mix (and therefore the modeled cost)
// changes — roughly half the front-end work per vector. Scan256 is
// Scan256Into from an empty heap.
func Scan256(fs *scan.FastScan, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	heap := topk.New(k)
	stats := Scan256Into(fs, t, heap)
	return heap.Results(), stats
}

// Scan256Into continues the query's running top-k in heap over fs's
// partition at 256-bit width; see ScanInto.
func Scan256Into(fs *scan.FastScan, t quantizer.Tables, heap *topk.Heap) Stats {
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
	stats.Ops.Add(tablePass)

	// Widen the query-lifetime minimum tables once.
	var minTables256 [M]simd.Reg256
	for j := c; j < M; j++ {
		minTables256[j] = simd.Dup128(minTables[j])
	}

	thrVal, haveThr := heap.Threshold()
	t8 := dq.PruneThreshold(thrVal, haveThr)
	thrReg := simd.Broadcast256(uint8(t8))

	g := fs.Grouped()
	var groupTables256 [layout.MaxGroupComponents]simd.Reg256
	var nibblesLo, nibblesHi [layout.BlockVectors]uint8

	// Per pair-of-blocks operation mix: same instruction count as one
	// 128-bit block iteration (each 256-bit instruction covers both
	// blocks), plus one extra scalar op for the wider mask handling.
	perPair := perf.OpCounts{
		SIMDLoad:     8,
		SIMDALU:      float64(2*c+2*(M-c)) + 7,
		SIMDShuffle:  8,
		SIMDCompare:  1,
		SIMDMovmsk:   1,
		ScalarALU:    3,
		ScalarBranch: 2,
	}
	pairs := 0

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
		for j := 0; j < c; j++ {
			groupTables256[j] = simd.Dup128(buildGroupTable(t, j, grp.Key[j], dq))
		}

		for b := 0; b < grp.BlockCount; b += 2 {
			pairs++
			stats.Blocks++
			loBlock := grp.BlockStart + b
			hiBlock := loBlock // degenerate pair for an odd trailing block
			if b+1 < grp.BlockCount {
				hiBlock = loBlock + 1
				stats.Blocks++
			}

			var acc simd.Reg256
			first := true
			for j := 0; j < c; j++ {
				g.LowNibbles(loBlock, j, &nibblesLo)
				g.LowNibbles(hiBlock, j, &nibblesHi)
				idx := simd.Concat128(simd.Load(nibblesLo[:]), simd.Load(nibblesHi[:]))
				lookup := simd.VPshufb(groupTables256[j], idx)
				if first {
					acc = lookup
					first = false
				} else {
					acc = simd.VPaddsB(acc, lookup)
				}
			}
			for j := c; j < M; j++ {
				comps := simd.Concat128(
					simd.Load(g.FullComponents(loBlock, j)),
					simd.Load(g.FullComponents(hiBlock, j)),
				)
				hi := simd.VPand(simd.VPsrlw4(comps), simd.LowNibbleBits256())
				lookup := simd.VPshufb(minTables256[j], hi)
				if first {
					acc = lookup
					first = false
				} else {
					acc = simd.VPaddsB(acc, lookup)
				}
			}

			mask := simd.VPmovmskB(simd.VPcmpgtB(acc, thrReg))

			// Lane half -> block mapping: lanes 0-15 are loBlock,
			// 16-31 are hiBlock (skipped when the pair is degenerate).
			halves := 1
			if hiBlock != loBlock {
				halves = 2
			}
			for half := 0; half < halves; half++ {
				base := grp.Start + (b+half)*layout.BlockVectors
				valid := grp.Count - (b+half)*layout.BlockVectors
				if valid > layout.BlockVectors {
					valid = layout.BlockVectors
				}
				stats.LowerBounds += valid
				// Tombstoned lanes are pruned like lanes above threshold.
				halfMask := uint16(mask>>(16*half)) | fs.DeadLanes(loBlock+half)
				if halfMask == 0xffff {
					stats.Pruned += valid
					continue
				}
				for lane := 0; lane < valid; lane++ {
					pos := base + lane
					if halfMask&(1<<lane) != 0 {
						stats.Pruned++
						continue
					}
					stats.Candidates++
					d := scan.ADC8(g.LaneCode(&grp, pos), t)
					if heap.Push(part.ID(fs.KeepN()+pos), d) {
						if thr, ok := heap.Threshold(); ok {
							nt := dq.PruneThreshold(thr, true)
							if nt != t8 {
								t8 = nt
								thrReg = simd.Broadcast256(uint8(t8))
							}
						}
					}
				}
			}
		}
	}
	stats.Ops.Add(perPair.Scale(float64(pairs)))
	stats.Ops.Add(perf.OpCounts{
		SIMDLoad:    float64(c),
		ScalarALU:   4,
		ScalarLoadF: float64(16 * c),
	}.Scale(float64(stats.Groups)))
	stats.Ops.Add(libpqPerVector.Scale(float64(stats.Candidates)))
	return stats
}

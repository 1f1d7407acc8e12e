package scan

import (
	"pqfastscan/internal/layout"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
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
func (fs *FastScan) Scan256(t quantizer.Tables, k int) ([]topk.Result, Stats) {
	heap := topk.New(k)
	stats := fs.Scan256Into(t, heap)
	return heap.Results(), stats
}

// Scan256Into continues the query's running top-k in heap over this
// partition at 256-bit width; see ScanInto.
func (fs *FastScan) Scan256Into(t quantizer.Tables, heap *topk.Heap) Stats {
	check8x8(t)
	stats := Stats{Scanned: fs.part.N, KeepScanned: fs.keepN}

	qmin, qmax, out := keepBounds(fs.part, fs.keepN, t, heap)
	stats.Ops.Add(libpqPerVector.Scale(float64(fs.keepN)))
	if out {
		fs.outOfReach(&stats)
		return stats
	}
	dq := newDistQuantizer(qmin, qmax)

	st := buildMinTables(t, fs.c, dq)
	stats.Ops.Add(perf.OpCounts{ScalarLoadF: 256 * M, ScalarALU: 512 * M})

	// Widen the query-lifetime minimum tables once.
	var minTables256 [M]simd.Reg256
	for j := fs.c; j < M; j++ {
		minTables256[j] = simd.Dup128(st.minTables[j])
	}

	thrVal, haveThr := heap.Threshold()
	t8 := dq.pruneThreshold(thrVal, haveThr)
	thrReg := simd.Broadcast256(uint8(t8))

	g := fs.grouped
	groupOrder := fs.groupVisitOrder(t, nil)
	hasDead := fs.part.HasDead()
	var groupTables256 [layout.MaxGroupComponents]simd.Reg256
	var nibblesLo, nibblesHi [layout.BlockVectors]uint8

	// Per pair-of-blocks operation mix: same instruction count as one
	// 128-bit block iteration (each 256-bit instruction covers both
	// blocks), plus one extra scalar op for the wider mask handling.
	perPair := perf.OpCounts{
		SIMDLoad:     8,
		SIMDALU:      float64(2*fs.c+2*(M-fs.c)) + 7,
		SIMDShuffle:  8,
		SIMDCompare:  1,
		SIMDMovmsk:   1,
		ScalarALU:    3,
		ScalarBranch: 2,
	}
	pairs := 0

	for _, gi := range groupOrder {
		grp := g.Groups[gi]
		stats.Groups++
		for j := 0; j < fs.c; j++ {
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
			for j := 0; j < fs.c; j++ {
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
			for j := fs.c; j < M; j++ {
				comps := simd.Concat128(
					simd.Load(g.FullComponents(loBlock, j)),
					simd.Load(g.FullComponents(hiBlock, j)),
				)
				hi := simd.VPand(simd.VPsrlw4(comps), simd.LowNibbleMask256())
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
				halfMask := uint16(mask >> (16 * half))
				if halfMask == 0xffff {
					stats.Pruned += valid
					continue
				}
				for lane := 0; lane < valid; lane++ {
					pos := base + lane
					if halfMask&(1<<lane) != 0 || (hasDead && fs.part.IsDead(g.IDs[pos])) {
						stats.Pruned++
						continue
					}
					stats.Candidates++
					d := adc8(g.Code(pos), t)
					if heap.Push(g.IDs[pos], d) {
						if thr, ok := heap.Threshold(); ok {
							nt := dq.pruneThreshold(thr, true)
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
		SIMDLoad:    float64(fs.c),
		ScalarALU:   4,
		ScalarLoadF: float64(16 * fs.c),
	}.Scale(float64(stats.Groups)))
	stats.Ops.Add(libpqPerVector.Scale(float64(stats.Candidates)))
	return stats
}

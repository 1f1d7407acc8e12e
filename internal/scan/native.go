// The serving Fast Scan.
//
// §4's algorithm — small-table lookups, saturating 8-bit accumulation,
// qsat-vs-threshold pruning, keep phase — implemented for wall-clock
// speed. One Go loop (scanBlocks) walks the groups and blocks for every
// backend, the groups in VisitOrder: the few of least key bound first,
// then the rest in key order. A group whose shared bound already prunes
// every lane at its entry is skipped (GroupBounds). Per other group,
// the block-kernel backend selected by internal/simd/dispatch
// lower-bounds all of the group's blocks and returns one pruned mask
// per block against the threshold at the group's entry:
//
//   - asm-avx2 / asm-neon: hand-written assembly (dispatch.Accumulate)
//     running the real pshufb/tbl pipeline over the whole group;
//   - swar (always available): per-query pair LUTs resolve two lanes of
//     a block per load into uint64 words of four 16-bit lanes
//     (swarAccumulate).
//
// The loop does the rest once, between blocks: re-masking after the
// threshold moved, padding and dead lanes, Stats, candidate processing
// and threshold refresh, so the decision sequence cannot differ between
// backends (DESIGN.md §12).
//
// All backends share every decision input (quantizer, thresholds, exact
// re-check arithmetic) and their lower-bound bytes agree lane-for-lane,
// so result sets AND statistics are bit-identical across backends
// (DESIGN.md §6, §12) — and equal to those of the instruction-counting
// model in internal/scan/model, which calls the same decision inputs and
// is checked against this file at every shape (§9).
package scan

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// SWAR constants: eight byte-lanes per uint64 word, lane 0 in the least
// significant byte (x86 memory order).
const (
	swarHighBits = 0x8080808080808080 // bit 7 of every lane
	swarOnes     = 0x0101010101010101 // 1 in every lane
	// swarMovemaskMul gathers the lane-0..7 low bits (after >>7) into
	// the top byte: with one bit per lane the per-byte partial sums of
	// the multiplication stay below 256, so no carry crosses a lane and
	// the top byte is exactly Σ bit_i·2^i (pmovmskb).
	swarMovemaskMul = 0x0102040810204080
)

// swarGtAddend returns the word to add lane-wise so that bit 7 of a lane
// becomes the acc > t8 test: with acc in [0, 127] and t8 in [0, 127],
// acc + (127 - t8) >= 128 iff acc > t8, and the sum (<= 254) never
// carries across lanes. Negative t8 is handled by the caller (every lane
// is then above threshold).
func swarGtAddend(t8 int8) uint64 {
	return uint64(127-uint8(t8)) * swarOnes
}

// swarMovemask extracts bit 7 of each of the eight lanes into a compact
// 8-bit mask, bit i for lane i (pmovmskb over one word).
func swarMovemask(x uint64) uint32 {
	return uint32((((x & swarHighBits) >> 7) * swarMovemaskMul) >> 56)
}

// 16-bit-lane SWAR constants for the pair-LUT block pipeline: four
// 16-bit lanes per uint64 word.
const (
	swar16HighBits = 0x8000800080008000 // bit 15 of every 16-bit lane
	swar16Ones     = 0x0001000100010001 // 1 in every 16-bit lane
	// swar16MovemaskMul gathers the four lane bits (after >>15, at word
	// positions 0, 16, 32, 48) into bits 48..51: the 16 partial-product
	// positions 16i + (48 - 15j) are pairwise distinct, so no carries,
	// and the i == j terms land exactly at 48 + i.
	swar16MovemaskMul = 0x0001000200040008
)

// swarMovemask16 extracts bit 15 of each of the four 16-bit lanes into a
// 4-bit mask, bit i for lane i.
func swarMovemask16(x uint64) uint32 {
	return uint32((((x&swar16HighBits)>>15)*swar16MovemaskMul)>>48) & 0xf
}

// ulutSize is the span of the ungrouped pair-LUT index (wa>>shift &
// 0x0f0f): two high nibbles, 8 bits apart. Only the 256 indexes of that
// form are ever written or read; the gaps are dead space traded for a
// mask-only index computation.
const ulutSize = 0x0f0f + 1

// queryTables is the per-scan table state of a Fast Scan: the window
// minima of the distance tables, the §4.4 distance quantizer, the
// quantized first-c distance-table rows (every group's small tables
// S_0..S_{C-1} are 16-entry windows into them), the scan-lifetime
// minimum tables (S_C..S_7 bound the blocks, rows 0..c-1 order and
// prune the groups with the group bounds), and the backend-specific
// derived tables — the SWAR pair LUTs and the assembly backends'
// contiguous 8×16-byte table block.
//
// It is built once per scan of one partition (queryTablesFor) into
// storage the Scratch reuses, and shared by every group that scan
// visits. Every probed cell has its own tables (the query term inside
// them is the index's to reuse, internal/index/tables.go) and, with one
// heap carried across cells, its own bounds, so there is nothing
// quantized to keep between scans. The model deliberately rebuilds per
// group instead; that is the instruction stream it meters.
type queryTables struct {
	c         int
	mins      WindowMinima // filled before the keep phase, which reads its bounds
	dq        DistQuantizer
	qrows     [layout.MaxGroupComponents][256]uint8
	minTables [M][16]uint8 // rows c..7 bound blocks, rows 0..c-1 order and prune groups
	gb        GroupBounds  // each group's shared bound, from minTables

	// SWAR pair-LUT state.
	glut []uint32 // grouped-component pair LUTs, c x 16 keys x 256
	ulut []uint32 // ungrouped-component pair LUTs, (M-c) x ulutSize

	// Assembly-backend state: the 8×16-byte table block handed to
	// dispatch.Accumulate. Minimum tables are written once per scan;
	// grouped windows are refreshed per group (16c bytes).
	tabBlock []uint8 // 128 bytes, layout.Alignment-aligned
}

// Scratch holds the reusable per-searcher buffers of a scan:
// the top-k heap and sorted-results buffer of the from-empty entry
// points, the query-table storage, the group visit order, and one
// group's lower bounds and pruned masks.
// Reusing one Scratch across queries keeps the steady-state scan loop
// at zero allocations; a Scratch must not be shared between concurrent
// scans. Passing nil to the scan entry points allocates a transient
// one.
//
// Result slices returned by scans alias sc.results and are overwritten
// by the next scan through the same Scratch; callers that retain
// results across queries must copy them out.
type Scratch struct {
	heap    *topk.Heap
	results []topk.Result

	qt    queryTables
	order []int32  // the scan's group visit order (VisitOrder)
	acc   []uint8  // asm backends' lower-bound bytes, 64-byte aligned
	words []uint64 // swar backend's lower bounds, four 16-bit lanes a word
	masks []uint16 // per-block pruned masks at the group's entry
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{heap: topk.New(1)} }

// growSlice returns s resized to n elements, reusing its backing array
// when possible. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growAligned returns s resized to n bytes on a layout.Alignment-aligned
// base, reusing the backing array when possible. Contents are
// unspecified.
func growAligned(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return layout.AlignedBytes(n, 0)
	}
	return s[:n]
}

// queryTablesFor builds, in the Scratch's storage, the rest of the
// query-table state for scanning fs with tables t under bounds
// (qmin, qmax), from the window minima sc.qt.mins already holds.
func (sc *Scratch) queryTablesFor(fs *FastScan, t quantizer.Tables, qmin, qmax float32) *queryTables {
	qt := &sc.qt
	qt.c = fs.c
	qt.dq = NewDistQuantizer(qmin, qmax)
	// Quantize the first c distance-table rows once per scan; every
	// group's small tables S_0..S_{C-1} are 16-entry windows into these
	// rows (entry values identical to the model's per-group table
	// builds, which quantize the same floats with the same quantizer).
	for j := 0; j < fs.c; j++ {
		row := t.Row(j)
		for i, v := range row {
			qt.qrows[j][i] = qt.dq.Quantize(v)
		}
	}
	qt.minTables = BuildMinTables(&qt.mins, qt.dq)
	qt.gb = NewGroupBounds(&qt.minTables, fs.c)
	return qt
}

// buildLUTs materializes the SWAR pair LUTs: one load then resolves TWO
// lanes of a block at once. Grouped components index by (group key,
// packed byte) — a packed byte is exactly two lanes' low nibbles;
// ungrouped components index by the two-high-nibbles pattern
// (w >> s) & 0x0f0f of adjacent code bytes. Each entry packs the two
// looked-up quantized values at bits 0 and 16, feeding the 16-bit-lane
// accumulators of the pair-LUT pipeline.
func (qt *queryTables) buildLUTs() {
	c := qt.c
	qt.glut = growSlice(qt.glut, c*16*256)
	for j := 0; j < c; j++ {
		q := &qt.qrows[j]
		dst := qt.glut[j*16*256 : (j+1)*16*256 : (j+1)*16*256]
		for key := 0; key < 16; key++ {
			tab := q[key*16 : key*16+16 : key*16+16]
			base := key << 8
			for hiN := 0; hiN < 16; hiN++ {
				vhi := uint32(tab[hiN]) << 16
				for loN := 0; loN < 16; loN++ {
					dst[base|hiN<<4|loN] = uint32(tab[loN]) | vhi
				}
			}
		}
	}
	qt.ulut = growSlice(qt.ulut, (M-c)*ulutSize)
	for j := c; j < M; j++ {
		mt := &qt.minTables[j]
		dst := qt.ulut[(j-c)*ulutSize : (j-c+1)*ulutSize : (j-c+1)*ulutSize]
		for hiN := 0; hiN < 16; hiN++ {
			vhi := uint32(mt[hiN]) << 16
			for loN := 0; loN < 16; loN++ {
				dst[hiN<<8|loN] = uint32(mt[loN]) | vhi
			}
		}
	}
}

// asmTables returns the 8×16-byte contiguous table block for the
// assembly kernels, with the scan-lifetime minimum tables S_C..S_7
// written in. The grouped windows S_0..S_{C-1} are refreshed
// per group by the caller.
func (qt *queryTables) asmTables() *[128]uint8 {
	if qt.tabBlock == nil {
		qt.tabBlock = layout.AlignedBytes(128, 0)
	}
	for j := qt.c; j < M; j++ {
		copy(qt.tabBlock[j*16:j*16+16], qt.minTables[j][:])
	}
	return (*[128]uint8)(qt.tabBlock)
}

// KeepBounds runs the §4.4 keep phase — plain PQ Scan into heap over the
// rows no lower bound will be computed for: the keep region [0, keepN)
// and the suffix [covered, p.N) appended since the layout was built, a
// second range into the same heap (covered = p.N when there is none) —
// and returns the quantization bounds it implies: qmin is the smallest
// table entry, qmax the worst distance heap retains — the running
// topk-th neighbor's once it is full — or the table maximum when it is
// empty. heap is the query's one running top-k: empty for a first or
// only cell, carrying every earlier cell's neighbors otherwise, so a
// later cell quantizes against — and prunes with — the bound the query
// already has. The single source of the bounds for every backend, the
// model and its quantization-only ablation — which is what keeps their
// pruning counters comparable. Each passes in the window minima of t
// (WindowMinima.Fill), from which qmin and the partition's least
// distance come.
//
// Two things only a carried heap can do are settled here, for every
// implementation alike. out reports that the rest of the partition is
// provably out: the heap is full and its threshold lies below the
// partition's least possible distance, so no vector can be retained (a
// tie at the threshold is not below it and still scans). And a qmax at or below
// qmin — a threshold under the smallest single entry of a partition
// that is not out — would quantize every entry to bin 0 and switch
// pruning off; the table maximum, the bound of an empty heap, stands in.
func KeepBounds(p *Partition, keepN, covered int, t quantizer.Tables, w *WindowMinima, heap *topk.Heap) (qmin, qmax float32, out bool) {
	LibpqRange(p, 0, keepN, t, heap)
	LibpqRange(p, covered, p.N, t, heap)
	qmin, least := w.Bounds()
	worst, ok := heap.Worst()
	if heap.Full() && worst < least {
		return qmin, worst, true
	}
	if !ok || worst <= qmin {
		worst = t.MaxSum()
	}
	return qmin, worst, false
}

// OutOfReach accounts the grouped region of a partition KeepBounds
// found out of reach: every vector counts as lower-bounded and pruned —
// by the one bound they all share — and no group or block is visited.
func (fs *FastScan) OutOfReach(stats *Stats) {
	stats.LowerBounds += fs.part.grouped.N
	stats.Pruned += fs.part.grouped.N
}

// ScanNativeBackend runs PQ Fast Scan for the query with block-kernel
// backend be (dispatch.Auto defers to the startup selection,
// dispatch.Active), returning the k nearest neighbors — bit-identical
// to Naive and ExactNative — and the dynamic vector/block statistics of
// the run. It is ScanNativeInto from an empty heap, results sorted into
// the Scratch.
func (fs *FastScan) ScanNativeBackend(t quantizer.Tables, k int, sc *Scratch, be dispatch.Backend) ([]topk.Result, Stats) {
	if sc == nil {
		sc = NewScratch()
	}
	sc.heap.Reset(k)
	stats := fs.ScanNativeInto(t, sc.heap, sc, be)
	sc.results = sc.heap.AppendResults(sc.results[:0])
	return sc.results, stats
}

// ScanNativeInto is the serving PQ Fast Scan: it continues the query's
// running top-k in heap over this partition, on an explicit
// block-kernel backend. A multi-probe query hands the same heap to every
// cell it scans, so each cell starts from the threshold the earlier ones
// reached; the retained set is the k smallest (distance, id) pairs of
// everything pushed, whatever the cell order. All backends evolve the
// heap identically and return identical statistics; they differ only in
// wall-clock speed. The caller is responsible for only requesting
// available backends (dispatch.Backend.Available); the index layer
// validates requests before they reach this point.
func (fs *FastScan) ScanNativeInto(t quantizer.Tables, heap *topk.Heap, sc *Scratch, be dispatch.Backend) Stats {
	Check8x8(t)
	if sc == nil {
		sc = NewScratch()
	}
	be = dispatch.Resolve(be)
	stats := Stats{Scanned: fs.part.N, KeepScanned: fs.PlainScanned()}

	// Phase 1 (§4.4): plain PQ Scan over the keep region and the rows
	// appended since the layout was built, to obtain the temporary
	// nearest neighbor bounding qmax — generalized to topk search
	// (§5.4): the distance to the temporary topk-th nearest neighbor
	// bounds the representable range (the running pruning threshold
	// starts exactly at qmax and only decreases, so every distance
	// quantized to 127 is already prunable; see PruneThreshold).
	sc.qt.mins.Fill(t)
	qmin, qmax, out := KeepBounds(fs.part, fs.keepN, fs.covered, t, &sc.qt.mins, heap)
	if out {
		fs.OutOfReach(&stats)
		return stats
	}

	// Phase 2: this scan's quantized tables, under the bounds just found.
	qt := sc.queryTablesFor(fs, t, qmin, qmax)

	thrVal, haveThr := heap.Threshold()
	t8 := qt.dq.PruneThreshold(thrVal, haveThr)

	tv := (*[M][256]float32)(unsafe.Pointer(&t.Data[0])) // Check8x8: M rows of 256
	fs.scanBlocks(sc, qt, be, &t8, heap, tv, &stats)
	return stats
}

// processLive walks the surviving lanes of one block — dead lanes
// already stripped by the caller, which counts them as candidates — in
// ascending lane order (the model's lane loop visits them the same way,
// so the heap evolves identically): exact re-check (right-hand path of
// Figure 6), then threshold refresh — shared by every backend so the
// decision sequence cannot drift. A candidate's code is read from blk,
// the packed block the bound has just streamed, which is the only copy
// of it: a grouped component j < c is the lane's nibble into the
// 16-entry window tv[j][key[j]<<4:] of its group, an ungrouped one the
// lane's byte of the block, indexing all of tv[j]. The sum runs in
// ADC8's j = 0..7 order, so the distance is ADC8's to the bit. Each
// depth c has a body of its own, the block a fixed-size array, so the
// offsets are constants and no index is bounds-checked. The id is read
// through the partition (Partition.ID) only once the distance says the
// heap may retain the candidate (d > threshold cannot displace a
// retained neighbor; ties go through Push for the deterministic
// id-order rule). pos is the grouped position of the block's lane 0.
func (fs *FastScan) processLive(live uint32, blk []uint8, key *[layout.MaxGroupComponents]uint8, pos int, qt *queryTables, tv *[M][256]float32, t8 *int8, heap *topk.Heap) {
	p, row := fs.part, fs.keepN+pos // the partition's position of lane 0
	thr, full := heap.Threshold()
	// window returns group row j's 16 entries, indexed by a nibble.
	window := func(j int) *[16]float32 {
		k := int(key[j]) << 4
		return (*[16]float32)(tv[j][k : k+16])
	}
	switch fs.c {
	case 0:
		b := (*[128]uint8)(blk)
		for ; live != 0; live &= live - 1 {
			l := uint(bits.TrailingZeros32(live)) & 15
			d := tv[0][b[l]] + tv[1][b[16+l]] + tv[2][b[32+l]] + tv[3][b[48+l]] +
				tv[4][b[64+l]] + tv[5][b[80+l]] + tv[6][b[96+l]] + tv[7][b[112+l]]
			if full && d > thr {
				continue
			}
			thr, full = offer(heap, p.ID(row+int(l)), d, qt, t8, thr, full)
		}
	case 1:
		b, w0 := (*[120]uint8)(blk), window(0)
		for ; live != 0; live &= live - 1 {
			l := uint(bits.TrailingZeros32(live)) & 15
			h, sh := l>>1, l&1*4
			d := w0[b[h]>>sh&15] + tv[1][b[8+l]] + tv[2][b[24+l]] + tv[3][b[40+l]] +
				tv[4][b[56+l]] + tv[5][b[72+l]] + tv[6][b[88+l]] + tv[7][b[104+l]]
			if full && d > thr {
				continue
			}
			thr, full = offer(heap, p.ID(row+int(l)), d, qt, t8, thr, full)
		}
	case 2:
		b, w0, w1 := (*[112]uint8)(blk), window(0), window(1)
		for ; live != 0; live &= live - 1 {
			l := uint(bits.TrailingZeros32(live)) & 15
			h, sh := l>>1, l&1*4
			d := w0[b[h]>>sh&15] + w1[b[8+h]>>sh&15] + tv[2][b[16+l]] + tv[3][b[32+l]] +
				tv[4][b[48+l]] + tv[5][b[64+l]] + tv[6][b[80+l]] + tv[7][b[96+l]]
			if full && d > thr {
				continue
			}
			thr, full = offer(heap, p.ID(row+int(l)), d, qt, t8, thr, full)
		}
	case 3:
		b, w0, w1, w2 := (*[104]uint8)(blk), window(0), window(1), window(2)
		for ; live != 0; live &= live - 1 {
			l := uint(bits.TrailingZeros32(live)) & 15
			h, sh := l>>1, l&1*4
			d := w0[b[h]>>sh&15] + w1[b[8+h]>>sh&15] + w2[b[16+h]>>sh&15] + tv[3][b[24+l]] +
				tv[4][b[40+l]] + tv[5][b[56+l]] + tv[6][b[72+l]] + tv[7][b[88+l]]
			if full && d > thr {
				continue
			}
			thr, full = offer(heap, p.ID(row+int(l)), d, qt, t8, thr, full)
		}
	case 4:
		b, w0, w1, w2, w3 := (*[96]uint8)(blk), window(0), window(1), window(2), window(3)
		for ; live != 0; live &= live - 1 {
			l := uint(bits.TrailingZeros32(live)) & 15
			h, sh := l>>1, l&1*4
			d := w0[b[h]>>sh&15] + w1[b[8+h]>>sh&15] + w2[b[16+h]>>sh&15] + w3[b[24+h]>>sh&15] +
				tv[4][b[32+l]] + tv[5][b[48+l]] + tv[6][b[64+l]] + tv[7][b[80+l]]
			if full && d > thr {
				continue
			}
			thr, full = offer(heap, p.ID(row+int(l)), d, qt, t8, thr, full)
		}
	}
}

// offer pushes candidate (id, d) into heap and returns the threshold
// after it, moving t8 with it once the heap is full.
func offer(heap *topk.Heap, id int64, d float32, qt *queryTables, t8 *int8, thr float32, full bool) (float32, bool) {
	if heap.Push(id, d) {
		if thr, full = heap.Threshold(); full {
			*t8 = qt.dq.PruneThreshold(thr, true)
		}
	}
	return thr, full
}

// swarPrunedMask derives one block's pruned mask from its 16 stored
// lower-bound bytes: bit i is set iff acc[i] > t8.
func swarPrunedMask(acc []uint8, t8 int8) uint32 {
	if t8 < 0 {
		return 0xffff
	}
	// acc lanes and the addend are both <= 127: no carry, and bit 7 of a
	// lane is set iff acc > t8 (for t8 == 127 the addend is 0 and no
	// lane can reach bit 7 — no pruning).
	add := swarGtAddend(t8)
	return swarMovemask(leUint64(acc[0:8])+add) | swarMovemask(leUint64(acc[8:16])+add)<<8
}

// scanBlocks is the one block loop of every backend. It visits the
// groups in VisitOrder, which moves no decision input: only the
// threshold a group meets depends on it. Per group, bound
// has the backend lower-bound all of the group's blocks and take their
// prune decision against the threshold current at the group's entry, in
// ONE call. The lower bound of a lane never depends on the threshold,
// which is what makes the group-at-a-time call safe. Candidate
// processing and threshold refresh stay here, between blocks. The
// threshold only ever tightens, so a lane pruned at entry is pruned at
// its block too: an all-pruned block is skipped on its mask alone, and a
// block with survivors is masked again from its stored bounds only if
// the threshold has moved since the call. The mask applied to a
// block is therefore always the one for the threshold current AT THAT
// BLOCK, and the decision sequence (and hence results, pruning counters
// and heap evolution) is the same on every backend. Padding lanes of a
// group's last block and dead lanes leave a block's survivors with one
// AND each and count as pruned, on every backend and in the model alike.
//
// A group whose shared bound (GroupBounds) already prunes every lane at
// its entry threshold is not bounded at all: its lanes count as
// lower-bounded and pruned — the accounting OutOfReach gives a
// partition pruned on one bound — and Groups and Blocks do not count
// it. The kernel would have masked out every lane of it, so the skip
// moves no decision.
func (fs *FastScan) scanBlocks(sc *Scratch, qt *queryTables, be dispatch.Backend, t8 *int8, heap *topk.Heap, tv *[M][256]float32, stats *Stats) {
	g := fs.part.grouped
	bb := g.BlockSize()
	hasDead := fs.dead.n > 0
	swar := !be.Asm()
	var tb *[128]uint8
	if swar {
		qt.buildLUTs()
	} else {
		tb = qt.asmTables()
	}

	sc.order = fs.VisitOrder(&qt.gb, sc.order)
	for _, gi := range sc.order {
		grp := &g.Groups[gi]
		entry := *t8
		if qt.gb.Prunes(&grp.Key, entry) {
			stats.LowerBounds += grp.Count
			stats.Pruned += grp.Count
			continue
		}
		nb := grp.BlockCount
		sc.bound(qt, be, tb, g.Blocks[grp.BlockStart*bb:(grp.BlockStart+nb)*bb], grp, entry)

		stats.Groups++
		stats.Blocks += nb
		stats.LowerBounds += grp.Count
		pruned := grp.Count // less every lane that reaches processLive
		for b, m := range sc.masks[:nb] {
			if m == 0xffff {
				continue
			}
			live := uint32(^m)
			if *t8 != entry {
				if swar {
					live &^= swarPrunedMask16(sc.words[4*b:4*b+4], *t8)
				} else {
					live &^= swarPrunedMask(sc.acc[b*16:b*16+16], *t8)
				}
			}
			if b == nb-1 {
				live &= 1<<(grp.Count-b*layout.BlockVectors) - 1 // padding lanes
			}
			if hasDead {
				live &^= fs.dead.lanes(grp.BlockStart + b)
			}
			if live == 0 {
				continue
			}
			n := bits.OnesCount32(live)
			pruned -= n
			stats.Candidates += n
			blk := g.Blocks[(grp.BlockStart+b)*bb : (grp.BlockStart+b+1)*bb]
			fs.processLive(live, blk, &grp.Key, grp.Start+b*layout.BlockVectors, qt, tv, t8, heap)
		}
		stats.Pruned += pruned
	}
}

// bound has backend be lower-bound the blocks of group grp and take
// their prune decision against thr: dispatch.Accumulate on the assembly
// backends, after the group's small-table windows are refreshed in the
// 8×16-byte table block tb (the kernel streams the whole group through
// vector registers), swarAccumulate on swar. The masks land in
// sc.masks, and the bounds a re-mask reads in sc.acc (min(Σ, 127)
// bytes) or sc.words (swar's exact 16-bit sums).
func (sc *Scratch) bound(qt *queryTables, be dispatch.Backend, tb *[128]uint8, blocks []uint8, grp *layout.Group, thr int8) {
	nb := grp.BlockCount
	sc.masks = growSlice(sc.masks, nb)
	if !be.Asm() {
		sc.words = growSlice(sc.words, 4*nb)
		qt.swarAccumulate(blocks, nb, &grp.Key, thr, sc.words, sc.masks)
		return
	}
	c := qt.c
	for j := 0; j < c; j++ {
		copy(tb[j*16:j*16+16], qt.qrows[j][int(grp.Key[j])*16:int(grp.Key[j])*16+16])
	}
	sc.acc = growAligned(sc.acc, nb*16)
	dispatch.Accumulate(be, blocks, layout.BlockBytes(c), c, nb, thr, tb, sc.acc, sc.masks)
}

// swarAccumulate is the swar backend's dispatch.Accumulate, on the pair
// LUTs of buildLUTs: it lower-bounds the nb packed blocks of the group
// with key key and takes their prune decision against thr. Block b's
// sixteen bounds land in words[4b:4b+4], four 16-bit lanes a word (lane
// 4w+i in bits 16i..16i+15 of word w), and its pruned mask in masks[b].
// Per component, eight LUT loads each resolve a lane PAIR, assembled
// directly into the words and added lane-wise. The sums are exact rather
// than saturated: every addend is in [0, 127], so a lane stays below
// 1016 and never carries, and min(sum, 127) is Accumulate's bound byte;
// swarPrunedMask16 makes Accumulate's decision from the exact sum.
// Building the pair tables costs ~10k stores per scan: ≈ 5–8 µs, a
// quarter of a 1 000-code partition's scan and repaid several times over
// from 10 000 codes up (DESIGN.md §12 has the measurement that chose
// this pipeline).
func (qt *queryTables) swarAccumulate(blocks []uint8, nb int, key *[layout.MaxGroupComponents]uint8, thr int8, words []uint64, masks []uint16) {
	c := qt.c
	bb := layout.BlockBytes(c)
	var groupLUTs [layout.MaxGroupComponents]*[256]uint32
	for j := 0; j < c; j++ {
		off := j*16*256 + int(key[j])<<8
		groupLUTs[j] = (*[256]uint32)(qt.glut[off : off+256])
	}
	var ungroupLUTs [M]*[ulutSize]uint32
	for j := c; j < M; j++ {
		ungroupLUTs[j] = (*[ulutSize]uint32)(qt.ulut[(j-c)*ulutSize : (j-c+1)*ulutSize])
	}

	for b := 0; b < nb; b++ {
		blk := blocks[b*bb : (b+1)*bb : (b+1)*bb]
		// Four 16-bit lanes per word (a0: lanes 0-3 ... a3: lanes
		// 12-15), one LUT load per lane PAIR.
		var a0, a1, a2, a3 uint64
		for j := 0; j < c; j++ {
			lk := groupLUTs[j]
			wp := leUint64(blk[j*8 : j*8+8])
			a0 += uint64(lk[wp&0xff]) | uint64(lk[wp>>8&0xff])<<32
			a1 += uint64(lk[wp>>16&0xff]) | uint64(lk[wp>>24&0xff])<<32
			a2 += uint64(lk[wp>>32&0xff]) | uint64(lk[wp>>40&0xff])<<32
			a3 += uint64(lk[wp>>48&0xff]) | uint64(lk[wp>>56])<<32
		}
		off := c * 8
		for j := c; j < M; j++ {
			ul := ungroupLUTs[j]
			wa := leUint64(blk[off : off+8])
			wb := leUint64(blk[off+8 : off+16])
			off += 16
			a0 += uint64(ul[wa>>4&0x0f0f]) | uint64(ul[wa>>20&0x0f0f])<<32
			a1 += uint64(ul[wa>>36&0x0f0f]) | uint64(ul[wa>>52&0x0f0f])<<32
			a2 += uint64(ul[wb>>4&0x0f0f]) | uint64(ul[wb>>20&0x0f0f])<<32
			a3 += uint64(ul[wb>>36&0x0f0f]) | uint64(ul[wb>>52&0x0f0f])<<32
		}
		w := words[4*b : 4*b+4 : 4*b+4]
		w[0], w[1], w[2], w[3] = a0, a1, a2, a3
		masks[b] = uint16(swarPrunedMask16(w, thr))
	}
}

// swarPrunedMask16 derives one block's pruned mask from its four words
// of exact 16-bit lane sums: bit i is set iff min(sum_i, 127), read
// signed, exceeds t8 — every lane for a negative t8, none for 127, and
// for t8 in [0, 126] exactly the lanes with sum > t8.
func swarPrunedMask16(w []uint64, t8 int8) uint32 {
	switch {
	case t8 < 0:
		return 0xffff
	case t8 == 127:
		return 0
	}
	// Lane sums <= 1016, addend <= 0x7fff: no carry, and bit 15 of a
	// lane is set iff sum > t8.
	add := (0x7fff - uint64(uint8(t8))) * swar16Ones
	return swarMovemask16(w[0]+add) | swarMovemask16(w[1]+add)<<4 |
		swarMovemask16(w[2]+add)<<8 | swarMovemask16(w[3]+add)<<12
}

// leUint64 loads 8 little-endian bytes as one word; the gc compiler
// recognizes the stdlib call and emits a single MOVQ.
func leUint64(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b)
}

// ExactNative is the tuned exact PQ Scan (the libpq kernel selection)
// from an empty heap: LibpqRange over every row, results sorted into
// the Scratch — bit-identical to Naive.
func ExactNative(p *Partition, t quantizer.Tables, k int, sc *Scratch) ([]topk.Result, Stats) {
	Check8x8(t)
	if sc == nil {
		sc = NewScratch()
	}
	sc.heap.Reset(k)
	LibpqRange(p, 0, p.N, t, sc.heap)
	sc.results = sc.heap.AppendResults(sc.results[:0])
	return sc.results, Stats{Scanned: p.N}
}

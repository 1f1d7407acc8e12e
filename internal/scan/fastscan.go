package scan

import (
	"fmt"
	"math"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
)

// FastScanOptions configures PQ Fast Scan.
type FastScanOptions struct {
	// Keep is the fraction of vectors at the beginning of the partition
	// scanned with plain PQ Scan to find a temporary nearest neighbor
	// whose distance becomes the quantization bound qmax (§4.4). The
	// paper finds "Any keep value between 0.1% and 1% is suitable" and
	// uses 0.5% by default.
	Keep float64
	// GroupComponents is the number c of leading components used for
	// vector grouping (§4.2). Negative selects automatically with the
	// paper's rule nmin(c) = 50·16^c.
	GroupComponents int
}

// DefaultKeep is the paper's default keep fraction (0.5 %).
const DefaultKeep = 0.005

// FastScan is the PQ Fast Scan kernel of §4 bound to one partition: the
// grouped/packed layout is built once and reused across queries, like the
// database reorganization the paper performs at index-construction time.
//
// The layout covers the partition's base, which Ordered has put in the
// order it reads: the keep region [0, keepN) first, then the grouped
// rows in group-key order, whose codes and ids the layout aliases — the
// packed blocks are the only bytes it adds (§4.2). Rows appended since
// the base was built (the tail, Rebind) are not regrouped: a scan takes
// them with the keep region, by plain PQ Scan (§4.4), which is where
// the paper puts rows that grouping does not pay for. A scan visits the
// groups in key order, the database order of §4.2–4.4. A layout is
// never modified.
//
// The partition's dead bits are by row; the layout's grouped rows are
// tombstoned a second time by block lane (blockIndex·16 + lane, padding
// lanes included), so a block scan strips every dead lane of a block
// with one AND of the mask DeadLanes returns, before any exact
// distance. The two agree for every grouped row: NewFastScan derives
// the lane bits from the row bits, and Rebind sets a lane together with
// the row its caller tombstoned.
type FastScan struct {
	part    *Partition
	keepN   int
	covered int // rows of part the layout accounts for: the base, keepN + grouped.N
	c       int
	grouped *layout.Grouped
	dead    deadSet // tombstoned block lanes
}

// Check reports why Fast Scan cannot lay a partition out under opt, or
// nil: a keep fraction outside [0,1), or more grouping components than
// the layout packs. Index construction refuses such options, so every
// base an index holds has a layout.
func (opt FastScanOptions) Check() error {
	if !(opt.Keep >= 0 && opt.Keep < 1) {
		return fmt.Errorf("scan: keep fraction %v out of [0,1)", opt.Keep)
	}
	if opt.GroupComponents > layout.MaxGroupComponents {
		return fmt.Errorf("scan: group components %d out of range (at most %d; negative selects automatically)", opt.GroupComponents, layout.MaxGroupComponents)
	}
	return nil
}

// shape returns the keep split and grouping depth opt gives a base of n
// rows, or why Fast Scan cannot lay it out.
func (opt FastScanOptions) shape(n int) (keepN, c int, err error) {
	if err := opt.Check(); err != nil {
		return 0, 0, err
	}
	keepN = int(opt.Keep * float64(n))
	c = opt.GroupComponents
	if c < 0 {
		c = layout.AutoComponents(n - keepN)
	}
	return keepN, c, nil
}

// Ordered returns p with its base in the order a Fast Scan layout under
// opt reads it: the first keepN rows where they are, then the rest in
// the layout's stable group-key order (layout.GroupOrder), ids
// explicit. The tail stays as it is and the dead bits move with their
// rows. A base already in that order is returned as it is — p itself,
// no copy — and so is one under options Check refuses. The index
// orders every base where it is born, so each code is stored once.
func Ordered(p *Partition, opt FastScanOptions) *Partition {
	base, _ := p.Segments()
	keepN, c, err := opt.shape(base.N)
	if err != nil {
		return p
	}
	perm := layout.GroupOrder(base.Codes[keepN*M:], c)
	q := *p
	q.ids = make([]int64, base.N)
	if perm == nil {
		if base.IDs != nil {
			return p
		}
		for i := range q.ids {
			q.ids[i] = base.ID(i)
		}
		return &q
	}
	// Position i of the new base takes row from(i) of the old one.
	from := func(i int) int {
		if i < keepN {
			return i
		}
		return keepN + perm[i-keepN]
	}
	q.codes = make([]uint8, len(base.Codes))
	for i := range q.ids {
		copy(q.codes[i*M:(i+1)*M], base.Codes[from(i)*M:])
		q.ids[i] = base.ID(from(i))
	}
	if p.HasDead() {
		q.dead = deadSet{}
		for i := 0; i < p.N; i++ {
			if i < base.N && p.dead.has(from(i)) || i >= base.N && p.dead.has(i) {
				q.dead.set(i)
			}
		}
	}
	return &q
}

// NewFastScan prepares PQ Fast Scan over p, whose base must be in the
// order Ordered gives it under opt: the first Keep fraction of the base
// stays row-major for the temporary-NN phase, the rest is grouped on c
// components and packed into 16-vector blocks, its codes and ids
// aliased from the base. The tail is plain-scanned. The lane of every
// dead grouped row is marked dead.
func NewFastScan(p *Partition, opt FastScanOptions) (*FastScan, error) {
	base, _ := p.Segments()
	keepN, c, err := opt.shape(base.N)
	if err != nil {
		return nil, err
	}
	codes, ids := groupedRows(base, keepN)
	g, err := layout.NewGrouped(codes, ids, c)
	if err != nil {
		return nil, fmt.Errorf("scan: partition base is not in Fast Scan order (Ordered): %w", err)
	}
	fs := &FastScan{part: p, keepN: keepN, covered: base.N, c: c, grouped: g}
	p.dead.each(func(i int) {
		if i >= keepN && i < base.N {
			fs.dead.set(g.Lane(i - keepN))
		}
	})
	return fs, nil
}

// groupedRows returns the codes and ids of the base rows past the keep
// region: the run the grouped layout aliases.
func groupedRows(base Rows, keepN int) ([]uint8, []int64) {
	ids := base.IDs
	if ids != nil {
		ids = ids[keepN:]
	}
	return base.Codes[keepN*M:], ids
}

// Partition returns the partition this layout is bound to, whose dead
// bits the plain-scanned rows are tested against.
func (fs *FastScan) Partition() *Partition { return fs.part }

// DeadLanes returns the tombstoned lanes of block blk (the layout's
// block index, not a group's), bit k for lane k.
func (fs *FastScan) DeadLanes(blk int) uint16 { return uint16(fs.dead.lanes(blk)) }

// Lane returns the block lane (blockIndex·16 + lane) that holds the
// partition's row at position row, or -1 when the row is plain-scanned:
// in the keep region or appended after the layout was built. The
// grouped rows are the base from keepN on, in the layout's order, so
// the lane follows from the group directory alone; a detached stub
// answers too.
func (fs *FastScan) Lane(row int) int {
	if row < fs.keepN || row >= fs.covered {
		return -1
	}
	return fs.grouped.Lane(row - fs.keepN)
}

// GroupComponents returns the grouping depth c in use.
func (fs *FastScan) GroupComponents() int { return fs.c }

// KeepN returns the number of vectors in the keep region at the head of
// the partition.
func (fs *FastScan) KeepN() int { return fs.keepN }

// Covered returns the number of leading rows of the partition the
// layout accounts for, keep region and grouped blocks together; rows
// from there on were appended after it was built.
func (fs *FastScan) Covered() int { return fs.covered }

// PlainScanned returns the number of vectors a scan takes by plain PQ
// Scan before the blocks: the keep region and the uncovered suffix.
func (fs *FastScan) PlainScanned() int { return fs.keepN + fs.part.N - fs.covered }

// Grouped exposes the packed layout (memory-footprint experiments).
func (fs *FastScan) Grouped() *layout.Grouped { return fs.grouped }

// with returns a copy of fs bound to part over the layout g.
func (fs *FastScan) with(part *Partition, g *layout.Grouped) *FastScan {
	nfs := *fs
	nfs.part, nfs.grouped = part, g
	return &nfs
}

// Rebind returns a FastScan over np that shares this layout, with lane
// tombstoned too when lane >= 0 — the whole cost of carrying a layout
// across a copy-on-write mutation: O(1), or one chunk of lane bits
// copied. np must hold the covered rows unchanged in the same
// positions: a successor of this partition by CloneAppend (lane -1: the
// new rows lie past Covered and are plain-scanned) or by CloneTombstone
// of one row (lane: that row's Lane, -1 when it is plain-scanned).
func (fs *FastScan) Rebind(np *Partition, lane int) *FastScan {
	if np.N < fs.covered {
		panic("scan: Rebind to a partition shorter than the layout")
	}
	nfs := fs.with(np, fs.grouped)
	if lane >= 0 {
		nfs.dead, _ = fs.dead.with(lane)
	}
	return nfs
}

// Detach returns a stub FastScan bound to the given partition stub: the
// scan parameters (keep split, grouping depth) and the
// grouped directory stay resident while the packed blocks move to a
// disk extent and the grouped codes and ids go with the base they alias
// (layout.Grouped.Detach).
func (fs *FastScan) Detach(stub *Partition) *FastScan {
	return fs.with(stub, fs.grouped.Detach())
}

// Hydrate returns a scannable FastScan over a hydrated partition and its
// packed blocks — per-pin shallow views over a pinned extent payload,
// valid only while the pin is held. p must be the hydration of the stub
// this FastScan was detached with (same rows); the grouped codes and
// ids are its base's, aliased as NewFastScan aliased them.
func (fs *FastScan) Hydrate(p *Partition, blocks []uint8) *FastScan {
	base, _ := p.Segments()
	codes, ids := groupedRows(base, fs.keepN)
	return fs.with(p, fs.grouped.Hydrate(blocks, codes, ids))
}

// DistQuantizer maps float32 distances to the signed 8-bit bins of §4.4.
//
// Safety contract (the exactness invariant): for every quantized entry q
// of value v, v >= qmin + q·delta holds in real arithmetic; therefore for
// any code the true ADC distance is bounded below by
// 8·qmin + delta·qsat, where qsat is the saturated sum of the 8 quantized
// small-table entries. PruneThreshold then chooses the comparison bound
// so that a pruned vector is strictly worse than the current topk-th
// neighbor, with one bin of slack absorbing accumulated float64 rounding.
type DistQuantizer struct {
	qmin  float64
	delta float64
}

// NewDistQuantizer returns the quantizer of the range KeepBounds found.
func NewDistQuantizer(qmin, qmax float32) DistQuantizer {
	d := (float64(qmax) - float64(qmin)) / 127
	if d <= 0 {
		// Degenerate table (no entry above qmin even at the table
		// maximum KeepBounds falls back to): every entry quantizes to
		// bin 0 and pruning is disabled by the threshold clamp.
		d = math.Inf(1)
	}
	return DistQuantizer{qmin: float64(qmin), delta: d}
}

// Quantize returns the bin of v, guaranteeing v >= qmin + bin·delta.
//
// The bin is the closed-form floor of (v-qmin)/delta with a single
// one-step correction: float64 rounding in the subtraction and division
// can push the computed ratio past an integer boundary, but the combined
// relative error is far below one bin at any representable ratio <= 127,
// so the floor overshoots the contract-satisfying bin by at most one.
func (q DistQuantizer) Quantize(v float32) uint8 {
	if math.IsInf(q.delta, 1) {
		return 0
	}
	n := int(math.Floor((float64(v) - q.qmin) / q.delta))
	if n > 127 {
		return 127
	}
	if n > 0 && q.qmin+float64(n)*q.delta > float64(v) {
		n--
	}
	if n < 0 {
		n = 0
	}
	return uint8(n)
}

// PruneThreshold returns the largest int8 t such that pruning every
// vector with qsat > t is safe against the current topk threshold min:
// qsat > t implies trueDistance > min, so the vector cannot displace any
// retained neighbor. When no pruning is safe (heap not full or degenerate
// delta) it returns 127, for which qsat > t is unsatisfiable.
//
// Saturated lanes (qsat = 127) deserve care: a saturating sum reaching
// 127 proves the un-saturated sum is at least 127, hence
// trueDistance >= 8·qmin + 127·delta = qmax + 7·qmin. Whenever that
// exceeds min — in particular always once the running threshold has
// dropped to qmax or below, which holds from the start when qmax is
// taken from the keep-phase heap — lanes above the representable range
// are prunable even though min itself lies beyond it ("All distances
// above qmax are quantized to 127", §4.4). Without this rule a scaled
// threshold beyond qmax would disable pruning entirely.
func (q DistQuantizer) PruneThreshold(min float32, haveMin bool) int8 {
	if !haveMin || math.IsInf(q.delta, 1) {
		return 127
	}
	t := int(math.Floor((float64(min)-8*q.qmin)/q.delta)) + 1
	if t > 126 {
		if 8*q.qmin+127*q.delta > float64(min) {
			// Saturated lanes are provably worse than min: let them fail
			// the qsat > t test.
			return 126
		}
		return 127
	}
	if t < -128 {
		t = -128
	}
	return int8(t)
}

// BuildMinTables computes the query-lifetime small tables S_C..S_7 of
// §4.1/§4.5: for each ungrouped component j >= c, the 16-entry minimum
// table whose entry h is the minimum of portion h of distance table j
// (Figure 10), quantized. Entries 0..c-1 are left zero; every group's
// tables S_0..S_{C-1} are quantized windows of the first c rows instead.
// A 16-byte table is exactly one SSE register.
func BuildMinTables(t quantizer.Tables, c int, dq DistQuantizer) [M][16]uint8 {
	var st [M][16]uint8
	for j := c; j < M; j++ {
		row := t.Row(j)
		for h := 0; h < 16; h++ {
			m := row[h*16]
			for _, v := range row[h*16+1 : h*16+16] {
				if v < m {
					m = v
				}
			}
			st[j][h] = dq.Quantize(m)
		}
	}
	return st
}

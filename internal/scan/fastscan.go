package scan

import (
	"fmt"
	"math"
	"slices"

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
// order it reads: the keep region [0, keepN) first, row-major, then the
// grouped rows in group-key order, whose packed blocks are their codes
// (§4.2), their ids the partition's. Rows appended since
// the base was built (the tail, Rebind) are not regrouped: a scan takes
// them with the keep region, by plain PQ Scan (§4.4), which is where
// the paper puts rows that grouping does not pay for. A scan visits a
// few groups of least bound first and the rest in key order, the
// database order of §4.2–4.4 (VisitOrder). A layout is never modified.
//
// The partition's dead bits are by row; the layout's grouped rows are
// tombstoned a second time by block lane (blockIndex·16 + lane, padding
// lanes included), so a block scan strips every dead lane of a block
// with one AND of the mask DeadLanes returns, before any exact
// distance. The two agree for every grouped row: NewFastScan derives
// the lane bits from the row bits, and Rebind sets a lane together with
// the row its caller tombstoned.
type FastScan struct {
	part    *Partition // laid out: part.grouped is the layout
	keepN   int
	covered int // rows of part the layout accounts for: the base, keepN + grouped.N
	c       int
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
// the layout's stable group-key order (layout.GroupOrder), their ids
// narrowed anew. The tail stays as it is and the dead bits move with
// their rows. A base already in that order is returned as it is — p itself,
// no copy — and so is one under options Check refuses, and one laid out
// under the shape opt gives it. Any other result is row-major. The
// index orders every base where it is born, so each code is stored
// once.
func Ordered(p *Partition, opt FastScanOptions) *Partition {
	n := p.baseN()
	keepN, c, err := opt.shape(n)
	if err != nil || p.laidOut(keepN, c) {
		return p
	}
	p = p.rowMajor()
	perm := layout.GroupOrder(p.codes[keepN*M:], c)
	if perm == nil {
		return p
	}
	// Position i of the new base takes row from(i) of the old one.
	from := func(i int) int {
		if i < keepN {
			return i
		}
		return keepN + perm[i-keepN]
	}
	q := *p
	q.codes = make([]uint8, len(p.codes))
	for i := 0; i < n; i++ {
		copy(q.codes[i*M:(i+1)*M], p.codes[from(i)*M:])
	}
	q.setIDs(n, func(i int) int64 { return p.ID(from(i)) })
	if p.HasDead() {
		q.dead = deadSet{}
		for i := 0; i < p.N; i++ {
			if i < n && p.dead.has(from(i)) || i >= n && p.dead.has(i) {
				q.dead.set(i)
			}
		}
	}
	return &q
}

// laidOut reports whether p's base has a layout of keep region keepN
// grouped on c components.
func (p *Partition) laidOut(keepN, c int) bool {
	return p.grouped != nil && p.plain() == keepN && p.grouped.C == c
}

// rowMajor returns p with its whole base row-major: p itself when it
// has no layout, otherwise a copy whose grouped rows are decoded into a
// fresh code array, its ids, tail and dead bits shared.
func (p *Partition) rowMajor() *Partition {
	if p.grouped == nil {
		return p
	}
	q := *p
	q.codes, q.grouped = p.appendCodes(make([]uint8, 0, p.baseN()*M), 0, p.baseN()), nil
	return &q
}

// NewFastScan prepares PQ Fast Scan over p, whose base must be in the
// order Ordered gives it under opt. It lays the base out: the first
// Keep fraction stays row-major for the temporary-NN phase, the rest is
// grouped on c components and packed into 16-vector blocks, which from
// then on are those rows' only codes; their ids stay the partition's.
// The FastScan is bound to the laid-out partition (Partition), which
// shares p's ids, tail and dead bits and replaces p for every reader; a
// base already laid out so keeps its layout. The tail is plain-scanned.
// The lane of every dead grouped row is marked dead.
func NewFastScan(p *Partition, opt FastScanOptions) (*FastScan, error) {
	n := p.baseN()
	keepN, c, err := opt.shape(n)
	if err != nil {
		return nil, err
	}
	if !p.laidOut(keepN, c) {
		p = p.rowMajor()
		g, err := layout.NewGrouped(p.codes[keepN*M:], c)
		if err != nil {
			return nil, fmt.Errorf("scan: partition base is not in Fast Scan order (Ordered): %w", err)
		}
		q := *p
		// A fresh array (nil when keepN is 0), so nothing holds on to
		// the row-major copy of the grouped rows.
		q.codes, q.grouped = append([]uint8(nil), p.codes[:keepN*M]...), g
		p = &q
	}
	g := p.grouped
	fs := &FastScan{part: p, keepN: keepN, covered: n, c: c}
	p.dead.each(func(i int) {
		if i >= keepN && i < n {
			fs.dead.set(g.Lane(i - keepN))
		}
	})
	return fs, nil
}

// Partition returns the laid-out partition this layout is bound to: the
// one to serve, whose dead bits the plain-scanned rows are tested
// against.
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
	return fs.part.grouped.Lane(row - fs.keepN)
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
func (fs *FastScan) Grouped() *layout.Grouped { return fs.part.grouped }

// with returns a copy of fs bound to part, a partition over the same
// base.
func (fs *FastScan) with(part *Partition) *FastScan {
	nfs := *fs
	nfs.part = part
	return &nfs
}

// Rebind returns a FastScan over np that shares this layout, with lane
// tombstoned too when lane >= 0 — the whole cost of carrying a layout
// across a copy-on-write mutation: O(1), or one chunk of lane bits
// copied. np must share this partition's base, layout included: a
// successor by CloneAppend (lane -1: the new rows lie past Covered and
// are plain-scanned) or by CloneTombstone of one row (lane: that row's
// Lane, -1 when it is plain-scanned).
func (fs *FastScan) Rebind(np *Partition, lane int) *FastScan {
	if np.N < fs.covered || np.grouped != fs.part.grouped {
		panic("scan: Rebind to a partition over another base")
	}
	nfs := fs.with(np)
	if lane >= 0 {
		nfs.dead, _ = fs.dead.with(lane)
	}
	return nfs
}

// Detach returns a stub FastScan bound to stub, the partition's
// Detach: the scan parameters (keep split, grouping depth) and the
// group directory stay resident while the packed blocks and the id
// offsets go to a disk extent with the rest of the base.
func (fs *FastScan) Detach(stub *Partition) *FastScan { return fs.with(stub) }

// Hydrate returns a scannable FastScan over p, the hydration of the
// stub this FastScan was detached with (Partition.Hydrate, the same
// rows): a per-pin shallow view over a pinned extent payload, valid
// only while the pin is held.
func (fs *FastScan) Hydrate(p *Partition) *FastScan { return fs.with(p) }

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

// WindowMinima is the one pass over a query's distance tables that
// every bound of a scan derives from: entry [j][h] is the least value
// of portion h of table j, the 16 entries 16h..16h+15 — the minimum
// tables of §4.1/§4.5 (Figure 10) before quantization. From it come
// the row minima, the paper's qmin and the least distance any code can
// have (KeepBounds, via Bounds) and, quantized, the minimum tables of
// all eight rows (BuildMinTables).
type WindowMinima [M][16]float32

// Fill computes w from t with no branch on the data (min16). The folds
// it replaced took an `if v < m` branch per entry and mispredicted on
// short windows (DESIGN.md §12). Served tables are finite, so the value
// of a minimum does not depend on the order of the fold; min may return
// −0 where a fold returned +0, and no bound reads the sign of a zero.
func (w *WindowMinima) Fill(t quantizer.Tables) {
	Check8x8(t)
	for j := range w {
		for h := range w[j] {
			w[j][h] = min16((*[16]float32)(t.Data[j*256+h*16:]))
		}
	}
}

// Bounds returns the smallest entry across all tables (the paper's
// qmin) and the least distance any code can have against them: the
// row minima summed in float32 in ADC8's j = 0..7 order. Rounding is
// monotonic, so every exact distance — the same chain of additions
// over entries no smaller — is at least that sum.
func (w *WindowMinima) Bounds() (entry, least float32) {
	entry = min16(&w[0])
	least = entry
	for j := 1; j < M; j++ {
		m := min16(&w[j])
		entry = min(entry, m)
		least += m
	}
	return entry, least
}

// min16 returns the least of 16 values by a fixed tree of the builtin
// min, branch-free: pairs (i, i+8), then (i, i+4), (i, i+2), (i, i+1).
func min16(v *[16]float32) float32 {
	a0, a1, a2, a3 := min(v[0], v[8]), min(v[1], v[9]), min(v[2], v[10]), min(v[3], v[11])
	a4, a5, a6, a7 := min(v[4], v[12]), min(v[5], v[13]), min(v[6], v[14]), min(v[7], v[15])
	a0, a1, a2, a3 = min(a0, a4), min(a1, a5), min(a2, a6), min(a3, a7)
	a0, a1 = min(a0, a2), min(a1, a3)
	return min(a0, a1)
}

// BuildMinTables quantizes the window minima w into the query-lifetime
// minimum tables of §4.1/§4.5 (Figure 10): row j, entry h is the least
// quantized value of portion h of distance table j. For an ungrouped
// component j >= c it is the small table S_j the block kernel looks the
// high nibble up in. For a grouped one j < c it is the least value
// component j can take in a group with key[j] = h — the least entry of
// the group's quantized window S_j, because Quantize is monotone —
// which GroupBounds sums into the group's key bound. A 16-byte table
// is exactly one SSE register.
func BuildMinTables(w *WindowMinima, dq DistQuantizer) [M][16]uint8 {
	var st [M][16]uint8
	for j := range st {
		for h, v := range w[j] {
			st[j][h] = dq.Quantize(v)
		}
	}
	return st
}

// GroupBounds is what the bound a group's lanes share is computed from
// under one scan's minimum tables mt (BuildMinTables): every lane of a
// group reads the same windows on its c grouped components (§4.2), so
//
//	bound(key) = Σ_{j<c} mt[j][key[j]] + Σ_{j≥c} min_h mt[j][h]
//
// — the key bound plus a floor — is at most every lane's saturated
// lower-bound byte: a grouped entry is at least its window's minimum,
// an ungrouped one at least its row's least minimum-table entry. The
// key bound orders the groups (VisitOrder); the whole bound prunes a
// group before the kernel sees it (Prunes).
type GroupBounds struct {
	kt    [layout.MaxGroupComponents][16]uint8 // mt's rows 0..c-1; zero from row c on
	floor uint32                               // Σ_{j≥c} min_h mt[j][h], once per scan
}

// NewGroupBounds returns the group bounds of a layout grouped on c
// components under minimum tables mt.
func NewGroupBounds(mt *[M][16]uint8, c int) GroupBounds {
	var gb GroupBounds
	copy(gb.kt[:c], mt[:c])
	for j := c; j < M; j++ {
		gb.floor += uint32(slices.Min(mt[j][:]))
	}
	return gb
}

// bound returns the bound every lane of a group with key key shares.
// Rows c.. of kt stay zero, so it is the sum of four entries whatever
// c is.
func (gb *GroupBounds) bound(key *[layout.MaxGroupComponents]uint8) uint32 {
	return gb.floor + uint32(gb.kt[0][key[0]&15]) + uint32(gb.kt[1][key[1]&15]) +
		uint32(gb.kt[2][key[2]&15]) + uint32(gb.kt[3][key[3]&15])
}

// Prunes reports whether every lane of a group with key key is pruned
// at threshold t8 on the bound they share alone: t8 is below 127 (at
// 127 nothing is prunable) and the bound is above it. A lane's bound
// byte is min(Σ, 127) with Σ at least the bound, so for t8 <= 126 it is
// above t8 too, and a negative t8 prunes every lane anyway: the kernel
// would have returned an all-pruned mask for every block of the group.
// Exact, on every backend and in the model.
func (gb *GroupBounds) Prunes(key *[layout.MaxGroupComponents]uint8, t8 int8) bool {
	return t8 < 127 && int32(gb.bound(key)) > int32(t8)
}

// primeGroups is how many groups a scan visits first, by key bound,
// before it streams the rest in key order. Measured on a clustered
// 400k-vector, 4-cell corpus (64 queries), exact re-checks per query
// at k = 100, nprobe = 1 and at k = 10, nprobe = 4: key order
// 12 375 / 2 826; prime 2: 8 441 / 1 676; prime 8: 7 728 / 1 569;
// prime 32: 7 092 / 1 469; every group in bound order: 6 808 / 1 448.
// Eight groups take most of the full reorder's gain while the block
// stream stays sequential; visiting every group in bound order made
// the block kernel 23 % slower per k = 10 scan-all query, its 3 MB of
// blocks no longer streaming through a 2 MiB L2 (DESIGN.md §12).
const primeGroups = 8

// VisitOrder returns, in dst's storage, the order a scan visits the
// layout's groups in under the group bounds gb (NewGroupBounds): first
// the primeGroups groups of least key bound Σ_{j<c} mt[j][key[j]] —
// ascending, ties by group index — then every other group in key order.
// A group's key bound is at most every lower bound of its lanes, so the
// primed groups are where the near rows most likely are: re-checked
// first, they tighten the threshold before the bulk of the blocks is
// lower-bounded against it. The selection is one pass with a
// primeGroups-slot insertion buffer, no sort. At c = 0 every bound is
// the floor and the order is the identity.
func (fs *FastScan) VisitOrder(gb *GroupBounds, dst []int32) []int32 {
	groups := fs.part.grouped.Groups
	// A slot is bound<<16 | index: a group index is below 16^c <= 2^16
	// and a bound at most 8·127, so one compare orders (bound, index).
	// The bound is the key bound plus the floor every group shares,
	// which leaves the order as the key bounds give it.
	var best [primeGroups]uint32
	n := 0
	for gi := range groups {
		s := gb.bound(&groups[gi].Key)<<16 | uint32(gi)
		if n == primeGroups && s >= best[n-1] {
			continue
		}
		i := n
		if n < primeGroups {
			n++
		} else {
			i--
		}
		for ; i > 0 && best[i-1] > s; i-- {
			best[i] = best[i-1]
		}
		best[i] = s
	}
	dst = dst[:0]
	for _, s := range best[:n] {
		dst = append(dst, int32(s&0xffff))
	}
	// The rest in key order: every index not primed. The primed indexes
	// ascending let one pointer skip them.
	var skip [primeGroups]int32
	copy(skip[:], dst)
	idx := skip[:n]
	slices.Sort(idx)
	for gi := range groups {
		if len(idx) > 0 && idx[0] == int32(gi) {
			idx = idx[1:]
			continue
		}
		dst = append(dst, int32(gi))
	}
	return dst
}

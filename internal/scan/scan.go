// Package scan is the engine that serves: the scans over one database
// partition of PQ 8×8 codes that a query can actually be answered with.
//
//   - Naive: Algorithm 1 verbatim (§3.1) — the scalar oracle every other
//     scan, here and in internal/scan/model, is checked against. It is
//     kept forever and reads the same Tables as the fast paths;
//   - ExactNative: the tuned exact PQ Scan, LibpqRange over every row;
//   - FastScan: the paper's contribution (§4) — the grouped layout and
//     its lifecycle in fastscan.go, the block-kernel scan over the
//     backends of internal/simd/dispatch in native.go.
//
// All three return bit-identical top-k results on identical input (the
// exactness invariant of DESIGN.md §6): each accumulates the same
// float32 distance-table entries in the same j = 0..7 order, so even
// floating-point rounding agrees.
//
// The paper's laboratory — the software-SIMD simulator Fast Scans, the
// §3 baselines, the §5.5 ablation and the operation mixes internal/perf
// prices — lives in internal/scan/model and is linked only by pqbench
// and tests. It reaches into this package through the exported decision
// inputs (WindowMinima, KeepBounds, DistQuantizer, BuildMinTables,
// GroupBounds, ADC8, LibpqRange, OutOfReach, DeadLanes, Check8x8): everything that
// decides what is pruned exists once, here, and the model calls it
// (DESIGN.md §9).
package scan

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/topk"
)

// M is the code length of the PQ 8×8 configuration every kernel targets.
const M = layout.M

// Partition is one scannable unit of the database: the vectors of one
// inverted-index cell, PQ 8×8 codes in two runs. The base is the bulk,
// immutable once built and shared between a partition and its
// successors (one disk extent when paged); the tail is the short run of
// rows appended since the base was built, row-major (Figure 1), the
// only part an append copies. Positions 0..N-1 run through the base,
// then the tail. Deletions are tombstones by position: one
// copy-on-write bit per row (deadSet), tested by every row-order scan
// (DeadAt) next to the row it reads; no code is rewritten.
//
// A base is stored in one of two ways. Without a layout (NewPartition)
// every row is row-major. With one (NewFastScan lays it out) only the
// keep region [0, keepN) is; the rows after it are the grouped layout's,
// whose packed blocks are their only code bytes. Rows are reachable
// from outside the package only through readers that know both ways
// and the tail (Code, Rows, FlatCodes, Stored, ID), so no reader can
// forget the tail or read a grouped row from bytes that are not there.
//
// A base's ids are narrow: one idBase for the base and a uint32 offset
// a row, 4 bytes where an int64 would take 8. The rare id that is not
// idBase plus an offset below spillOff sits in spill, keyed by row, and
// its offset is spillOff. ID is the one read path. The tail's ids are
// int64: a tail is short and folds away.
type Partition struct {
	N int // rows, base and tail together

	codes   []uint8         // row-major codes of the base's plain rows: all of them, or the keep region of a layout
	idBase  int64           // the smallest base id
	idOff   []uint32        // per base row: its id − idBase, or spillOff
	spill   []spilledID     // the base rows whose offset is spillOff, by row
	grouped *layout.Grouped // the base's rows after the plain ones, when it has a layout

	tailCodes []uint8 // rows appended since the base was built
	tailIDs   []int64

	dead deadSet // tombstoned positions

	// detached marks a stub whose base lives in a disk extent (Detach).
	detached bool
}

// spillOff is the offset of a base row whose id is in the spill.
const spillOff = math.MaxUint32

// spilledID is the id of a base row that no offset holds.
type spilledID struct {
	row int
	id  int64
}

// NewPartition wraps row-major PQ 8×8 codes (and optional ids; nil
// means position == id) as a partition of one base and no tail — the
// only code width an index holds.
func NewPartition(codes []uint8, ids []int64) *Partition {
	if ids == nil {
		return NewPartitionFunc(codes, func(i int) int64 { return int64(i) })
	}
	if len(ids) != len(codes)/M {
		panic("scan: id count mismatch")
	}
	return NewPartitionFunc(codes, func(i int) int64 { return ids[i] })
}

// NewPartitionFunc is NewPartition with row i's id given by id(i), so
// a reader can narrow ids as it decodes them, with no int64 array
// between.
func NewPartitionFunc(codes []uint8, id func(i int) int64) *Partition {
	if len(codes)%M != 0 {
		panic("scan: code array not a multiple of the code width")
	}
	p := &Partition{N: len(codes) / M, codes: codes}
	p.setIDs(p.N, id)
	return p
}

// setIDs narrows the base's n ids, id(i) for row i, against the
// smallest of them.
func (p *Partition) setIDs(n int, id func(i int) int64) {
	p.idBase, p.idOff, p.spill = 0, make([]uint32, n), nil
	if n == 0 {
		return
	}
	base := id(0)
	for i := 1; i < n; i++ {
		base = min(base, id(i))
	}
	for i := range p.idOff {
		v := id(i)
		if off := uint64(v) - uint64(base); off < spillOff {
			p.idOff[i] = uint32(off)
		} else {
			p.idOff[i] = spillOff
			p.spill = append(p.spill, spilledID{row: i, id: v})
		}
	}
	p.idBase = base
}

// Tail returns the number of rows appended since the base was built.
func (p *Partition) Tail() int { return len(p.tailIDs) }

// baseN returns the number of rows in the base.
func (p *Partition) baseN() int { return p.N - len(p.tailIDs) }

// plain returns the number of leading base rows stored row-major.
func (p *Partition) plain() int {
	if p.grouped == nil {
		return p.baseN()
	}
	return p.baseN() - p.grouped.N
}

// Stored returns the base as it is held — the sections of its extent
// when paged: the row-major codes of the plain rows, every base row's
// id offset, and the grouped rows' packed blocks (nil without a
// layout). A grouped row's code is in the blocks only; the id base and
// the spill stay with a detached stub.
func (p *Partition) Stored() (codes []uint8, idOff []uint32, blocks []uint8) {
	if p.detached {
		panic("scan: rows of a detached partition stub")
	}
	if p.grouped != nil {
		blocks = p.grouped.Blocks
	}
	return p.codes, p.idOff, blocks
}

// IDBytes returns the bytes the partition holds for its ids: 4 an
// offset, 16 a spilled id and 8 a tail row.
func (p *Partition) IDBytes() int {
	return 4*len(p.idOff) + int(unsafe.Sizeof(spilledID{}))*len(p.spill) + 8*len(p.tailIDs)
}

// ID maps a vector position to its external id.
func (p *Partition) ID(i int) int64 {
	if b := p.N - len(p.tailIDs); i >= b {
		return p.tailIDs[i-b]
	}
	if i >= len(p.idOff) {
		panic("scan: ID on a detached partition stub")
	}
	if off := p.idOff[i]; off != spillOff {
		return p.idBase + int64(off)
	}
	return p.spilledID(i)
}

// spilledID returns the id of base row i from the spill.
func (p *Partition) spilledID(i int) int64 {
	k, _ := slices.BinarySearchFunc(p.spill, i, func(s spilledID, row int) int { return s.row - row })
	return p.spill[k].id
}

// Code returns the pqcode of vector i: a grouped row's from its group
// key and block lane (one group search; bulk readers use Rows).
func (p *Partition) Code(i int) [M]uint8 {
	if b := p.baseN(); i >= b {
		return [M]uint8(p.tailCodes[(i-b)*M:])
	}
	if plain := p.plain(); i >= plain {
		return p.grouped.Code(i - plain)
	}
	return [M]uint8(p.codes[i*M:])
}

// Cursor reads a run of a partition's positions in order as runs of
// row-major codes: the plain rows and the tail as they are stored, the
// grouped rows up to one block at a time, decoded by the layout's
// Walker. It is the path of every reader that wants many rows.
type Cursor struct {
	p       *Partition
	pos, hi int
	walking bool
	walk    layout.Walker
}

// Rows returns a Cursor over positions [lo, hi).
func (p *Partition) Rows(lo, hi int) Cursor {
	if p.detached && lo < min(hi, p.baseN()) {
		panic("scan: rows of a detached partition stub")
	}
	return Cursor{p: p, pos: lo, hi: hi}
}

// Next returns the next run of rows: the position of its first row and
// the codes, M bytes a row, valid until the following call. ok is false
// once the cursor's positions are read.
func (c *Cursor) Next() (first int, codes []uint8, ok bool) {
	if c.pos >= c.hi {
		return 0, nil, false
	}
	p := c.p
	plain, b := p.plain(), p.baseN()
	first = c.pos
	switch {
	case first < plain:
		c.pos = min(c.hi, plain)
		codes = p.codes[first*M : c.pos*M]
	case first < b:
		if !c.walking {
			c.walk, c.walking = p.grouped.Walk(first-plain, min(c.hi, b)-plain), true
		}
		pos, run, _ := c.walk.Next()
		first, codes = plain+pos, run
		c.pos = first + len(run)/M
	default:
		c.pos = c.hi
		codes = p.tailCodes[(first-b)*M : (c.pos-b)*M]
	}
	return first, codes, true
}

// appendCodes appends the codes of positions [lo, hi) to dst.
func (p *Partition) appendCodes(dst []uint8, lo, hi int) []uint8 {
	rows := p.Rows(lo, hi)
	for {
		_, codes, ok := rows.Next()
		if !ok {
			return dst
		}
		dst = append(dst, codes...)
	}
}

// FlatCodes returns every row's code as one row-major run: the base
// array itself while the whole base is row-major and the tail empty, a
// fresh concatenation otherwise.
func (p *Partition) FlatCodes() []uint8 {
	if p.grouped == nil && len(p.tailIDs) == 0 {
		return p.codes
	}
	return p.appendCodes(make([]uint8, 0, p.N*M), 0, p.N)
}

// CloneAppend returns a new partition holding p's rows followed by the
// appended ones (row-major codes and their ids), leaving p untouched —
// partitions published in snapshots grow only copy-on-write. The base
// and the dead bits are shared with p and only the tail is copied: an
// append costs what it adds plus the rows added since the last Flatten,
// whatever the size of the partition. The appended rows take positions
// N.. and start live. It works on a detached stub: the tail stays
// resident.
func (p *Partition) CloneAppend(codes []uint8, ids []int64) *Partition {
	if len(codes) != len(ids)*M {
		panic("scan: append code/id count mismatch")
	}
	q := *p
	q.N += len(ids)
	q.tailCodes = append(append(make([]uint8, 0, len(p.tailCodes)+len(codes)), p.tailCodes...), codes...)
	q.tailIDs = append(append(make([]int64, 0, len(p.tailIDs)+len(ids)), p.tailIDs...), ids...)
	return &q
}

// CloneTombstone returns a new partition equal to p with the row at
// position row tombstoned, sharing the base and the tail and copying
// one 4 096-bit chunk of the dead bits plus their chunk-pointer slice:
// O(N / 4 096), however many rows are already dead. It reports false
// (and returns p unchanged) when the row is already dead. It works on a
// detached stub.
func (p *Partition) CloneTombstone(row int) (*Partition, bool) {
	if row < 0 || row >= p.N {
		panic("scan: tombstone position out of range")
	}
	dead, ok := p.dead.with(row)
	if !ok {
		return p, false
	}
	q := *p
	q.dead = dead
	return &q, true
}

// Detach returns a shallow copy of the partition with the base arrays
// dropped — its layout's too, down to the group directory
// (layout.Grouped.Detach): a stub whose row and tombstone bookkeeping
// (N, dead bits), id base and spill, and tail stay resident while the
// base lives in a disk extent. Stubs answer Live/DeadAt/DeadCount and
// may be appended to and tombstoned copy-on-write; any other code or id
// access must go through Hydrate first — ID of a base row panics on a
// stub.
func (p *Partition) Detach() *Partition {
	q := *p
	q.codes, q.idOff = nil, nil
	if p.grouped != nil {
		q.grouped = p.grouped.Detach()
	}
	q.detached = true
	return &q
}

// Hydrate returns a shallow copy of the stub with the base arrays
// attached, the three Stored returned before Detach — aliases into a
// pinned buffer-pool frame, valid only while the pin is held. The tail,
// the dead bits, the id base and the spill are shared with the stub
// (immutable once published).
func (p *Partition) Hydrate(codes []uint8, idOff []uint32, blocks []uint8) *Partition {
	if len(codes) != p.plain()*M {
		panic("scan: Hydrate code length mismatch")
	}
	if len(idOff) != p.baseN() {
		panic("scan: Hydrate id count mismatch")
	}
	q := *p
	q.codes, q.idOff = codes, idOff
	switch {
	case p.grouped != nil:
		q.grouped = p.grouped.Hydrate(blocks)
	case len(blocks) != 0:
		panic("scan: Hydrate blocks for a base without a layout")
	}
	q.detached = false
	return &q
}

// Flatten returns a new partition holding p's rows in one fresh base
// with an empty tail — the fold of the tail, and a copy that aliases
// nothing of p's arrays (a paged caller's pinned frame). Every row
// keeps its position, so the dead bits are shared with p.
func (p *Partition) Flatten() *Partition {
	q := p.rebuilt(false)
	q.dead = p.dead
	return q
}

// Compact returns a new partition holding only p's live rows, in their
// original relative order, in one base with an empty tail and no dead
// bits. Positions are renumbered. Like Flatten it aliases nothing of
// p's arrays.
func (p *Partition) Compact() *Partition { return p.rebuilt(true) }

// rebuilt copies p's rows, all or only the live ones, into a partition
// of one fresh row-major base.
func (p *Partition) rebuilt(liveOnly bool) *Partition {
	drop := liveOnly && p.HasDead()
	n := p.N
	if drop {
		n = p.Live()
	}
	codes := make([]uint8, 0, n*M)
	ids := make([]int64, 0, n)
	rows := p.Rows(0, p.N)
	for {
		first, run, ok := rows.Next()
		if !ok {
			break
		}
		for i := 0; i < len(run)/M; i++ {
			if drop && p.DeadAt(first+i) {
				continue
			}
			codes = append(codes, run[i*M:(i+1)*M]...)
			ids = append(ids, p.ID(first+i))
		}
	}
	return NewPartition(codes, ids)
}

// DeadAt reports whether the row at position i is tombstoned.
func (p *Partition) DeadAt(i int) bool { return p.dead.has(i) }

// HasDead reports whether any vector of the partition is tombstoned;
// kernels use it to keep the no-deletions scan free of per-row bit
// tests.
func (p *Partition) HasDead() bool { return p.dead.n > 0 }

// DeadCount returns the number of tombstoned vectors.
func (p *Partition) DeadCount() int { return p.dead.n }

// Live returns the number of vectors that are not tombstoned.
func (p *Partition) Live() int { return p.N - p.dead.n }

// DeadIDs returns the ids of the tombstoned rows in ascending order
// (persist writes them deterministically, as it always has).
func (p *Partition) DeadIDs() []int64 {
	out := make([]int64, 0, p.dead.n)
	p.dead.each(func(i int) { out = append(out, p.ID(i)) })
	slices.Sort(out)
	return out
}

// RestoreDead tombstones the rows holding the given ids, in place —
// persist's read path, before the partition is published. An id the
// partition does not hold, or one listed twice, is an error: the list
// is untrusted input and Live would otherwise miscount.
func (p *Partition) RestoreDead(ids []int64) error {
	if len(ids) == 0 {
		return nil
	}
	want := slices.Clone(ids)
	slices.Sort(want)
	for i := 1; i < len(want); i++ {
		if want[i] == want[i-1] {
			return fmt.Errorf("scan: id %d tombstoned twice", want[i])
		}
	}
	found := make([]bool, len(want))
	for i := 0; i < p.N; i++ {
		if k, ok := slices.BinarySearch(want, p.ID(i)); ok && !found[k] {
			found[k] = true
			p.dead.set(i)
		}
	}
	if k := slices.Index(found, false); k >= 0 {
		return fmt.Errorf("scan: tombstoned id %d is not in the partition", want[k])
	}
	return nil
}

// Stats describes one scan's dynamic behaviour: exact counts of vectors,
// groups and blocks, identical on every backend and in the model
// (internal/scan/model wraps it with the operation mix it prices).
type Stats struct {
	Scanned     int // vectors examined in total
	KeepScanned int // vectors scanned with plain PQ Scan in the keep phase
	// LowerBounds counts the vectors lower-bounded (FastScan): by the
	// block kernel, or by a bound they share — their group's
	// (GroupBounds) or their out-of-reach partition's (OutOfReach).
	LowerBounds int
	Pruned      int // vectors whose exact distance computation was pruned, by a shared bound too
	Candidates  int // exact pqdistance computations after a lower bound
	// Groups and Blocks count what the block kernel bounded (FastScan):
	// a group pruned on its shared bound is in neither.
	Groups int
	Blocks int // 16-vector blocks
}

// Merge accumulates another scan's counts into s (multi-probe and batch
// aggregation).
func (s *Stats) Merge(o Stats) {
	s.Scanned += o.Scanned
	s.KeepScanned += o.KeepScanned
	s.LowerBounds += o.LowerBounds
	s.Pruned += o.Pruned
	s.Candidates += o.Candidates
	s.Groups += o.Groups
	s.Blocks += o.Blocks
}

// PrunedFraction returns the fraction of lower-bounded vectors whose
// exact distance computation was avoided — the paper's "Pruned [%]" axis.
func (s Stats) PrunedFraction() float64 {
	if s.LowerBounds == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.LowerBounds)
}

// ADC8 computes the ADC distance of Equation 3 for one 8-component code,
// accumulating in the fixed j = 0..7 order shared by all kernels.
func ADC8(code [M]uint8, t quantizer.Tables) float32 {
	d := t.Data[int(code[0])]
	d += t.Data[256+int(code[1])]
	d += t.Data[2*256+int(code[2])]
	d += t.Data[3*256+int(code[3])]
	d += t.Data[4*256+int(code[4])]
	d += t.Data[5*256+int(code[5])]
	d += t.Data[6*256+int(code[6])]
	d += t.Data[7*256+int(code[7])]
	return d
}

// Check8x8 panics unless t is the distance-table shape every scan of
// this package and of the model requires.
func Check8x8(t quantizer.Tables) {
	if t.M != M || t.KStar != 256 {
		panic("scan: kernels require PQ 8x8 distance tables")
	}
}

// Naive scans the partition with Algorithm 1 and returns the k nearest
// neighbors.
func Naive(p *Partition, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	Check8x8(t)
	heap := topk.New(k)
	hasDead := p.HasDead()
	rows := p.Rows(0, p.N)
	for {
		first, codes, ok := rows.Next()
		if !ok {
			break
		}
		for i := 0; i < len(codes)/M; i++ {
			if hasDead && p.DeadAt(first+i) {
				continue
			}
			heap.Push(p.ID(first+i), ADC8([M]uint8(codes[i*M:]), t))
		}
	}
	return heap.Results(), Stats{Scanned: p.N}
}

// LibpqRange scans positions [lo, hi) of the partition — whichever of
// its runs they fall in, a grouped row decoded by the partition's
// Cursor — into heap: the one exact PQ Scan loop,
// the tuned libpq baseline of §3.1. It is ExactNative's whole body,
// FastScan's keep phase and the body of the model's libpq baseline. The
// eight table rows are hoisted out of the loop, each indexed by one
// code byte (a uint8 into a 256-entry row needs no bounds check), and
// the distance is summed in Naive's j = 0..7 order, so it is ADC8's to
// the bit. Tombstoned vectors are skipped. A local copy of the heap
// threshold gates the Push call: a distance strictly above the full
// heap's root cannot be retained, so skipping the call changes nothing
// (ties still go through Push for the deterministic id-order rule).
func LibpqRange(p *Partition, lo, hi int, t quantizer.Tables, heap *topk.Heap) {
	td := t.Data
	t0 := td[0*256 : 1*256 : 1*256]
	t1 := td[1*256 : 2*256 : 2*256]
	t2 := td[2*256 : 3*256 : 3*256]
	t3 := td[3*256 : 4*256 : 4*256]
	t4 := td[4*256 : 5*256 : 5*256]
	t5 := td[5*256 : 6*256 : 6*256]
	t6 := td[6*256 : 7*256 : 7*256]
	t7 := td[7*256 : 8*256 : 8*256]

	hasDead := p.HasDead()
	thr, full := heap.Threshold()
	rows := p.Rows(lo, hi)
	for {
		first, codes, ok := rows.Next()
		if !ok {
			break
		}
		for i := 0; i < len(codes)/M; i++ {
			if hasDead && p.dead.has(first+i) {
				continue
			}
			cd := codes[i*M : i*M+M : i*M+M]
			d := t0[cd[0]] + t1[cd[1]] + t2[cd[2]] + t3[cd[3]] +
				t4[cd[4]] + t5[cd[5]] + t6[cd[6]] + t7[cd[7]]
			if full && d > thr {
				continue
			}
			if heap.Push(p.ID(first+i), d) {
				if v, ok := heap.Threshold(); ok {
					thr, full = v, true
				}
			}
		}
	}
}

// Package scan is the engine that serves: the scans over one database
// partition of PQ 8×8 codes that a query can actually be answered with.
//
//   - Naive: Algorithm 1 verbatim (§3.1) — the scalar oracle every other
//     scan, here and in internal/scan/model, is checked against. It is
//     kept forever and reads the same Tables as the fast paths;
//   - ExactNative: the tuned exact PQ Scan (native.go);
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
// inputs (KeepBounds, DistQuantizer, BuildMinTables, GroupVisitOrder,
// ADC8, LibpqRange, OutOfReach, Check8x8): everything that decides what
// is pruned exists once, here, and the model calls it (DESIGN.md §9).
package scan

import (
	"encoding/binary"
	"sort"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/topk"
)

// M is the code length of the PQ 8×8 configuration every kernel targets.
const M = layout.M

// Partition is one scannable unit of the database: the vectors of one
// inverted-index cell, stored as row-major pqcodes (Figure 1). A
// partition is mutable: Append adds freshly encoded vectors at the end,
// Tombstone marks vectors as deleted without rewriting the code blocks
// (kernels skip tombstoned ids during the scan).
type Partition struct {
	N     int
	W     int     // code width in bytes (components per vector)
	Codes []uint8 // row-major, N x W
	IDs   []int64 // optional original ids; nil means position == id

	dead map[int64]struct{} // tombstoned ids; nil when none

	// detached marks a stub whose Codes/IDs live in a disk extent
	// (Detach); ID traps position-as-id answers on such stubs, which
	// would otherwise silently misreport partitions with explicit ids.
	detached bool
}

// NewPartition wraps row-major PQ 8×8 codes (and optional ids) as a
// Partition.
func NewPartition(codes []uint8, ids []int64) *Partition {
	return NewPartitionW(codes, ids, M)
}

// NewPartitionW wraps row-major codes of w components each. Only w == M
// partitions are scannable by the kernels of this package; other widths
// exist for building and persisting alternative PQ configurations.
func NewPartitionW(codes []uint8, ids []int64, w int) *Partition {
	if w <= 0 || len(codes)%w != 0 {
		panic("scan: code array not a multiple of the code width")
	}
	n := len(codes) / w
	if ids != nil && len(ids) != n {
		panic("scan: id count mismatch")
	}
	return &Partition{N: n, W: w, Codes: codes, IDs: ids}
}

// ID maps a vector position to its external id.
func (p *Partition) ID(i int) int64 {
	if p.IDs == nil {
		if p.detached {
			panic("scan: ID on a detached partition stub")
		}
		return int64(i)
	}
	return p.IDs[i]
}

// Code returns the pqcode of vector i.
func (p *Partition) Code(i int) []uint8 {
	return p.Codes[i*p.W : (i+1)*p.W]
}

// CloneAppend returns a new partition holding p's rows followed by the
// appended ones (row-major codes and their ids, always explicit; p's
// implicit position ids are materialized), leaving p untouched — sealed
// partitions published in snapshots grow only copy-on-write. The
// tombstone set is shared with p: appends never tombstone, and sealed
// partitions only grow their dead sets through CloneTombstone, which
// copies before writing.
func (p *Partition) CloneAppend(codes []uint8, ids []int64) *Partition {
	if len(codes) != len(ids)*p.W {
		panic("scan: append code/id count mismatch")
	}
	nc := make([]uint8, 0, len(p.Codes)+len(codes))
	nc = append(append(nc, p.Codes...), codes...)
	ni := make([]int64, 0, p.N+len(ids))
	if p.IDs == nil {
		for i := 0; i < p.N; i++ {
			ni = append(ni, int64(i))
		}
	} else {
		ni = append(ni, p.IDs...)
	}
	ni = append(ni, ids...)
	return &Partition{N: p.N + len(ids), W: p.W, Codes: nc, IDs: ni, dead: p.dead}
}

// CloneTombstone returns a new partition equal to p with id tombstoned,
// sharing the (immutable) code and id arrays and copying only the dead
// set — the copy-on-write counterpart of Tombstone. It reports false
// (and returns p unchanged) when id is already dead. Like Tombstone, the
// caller is responsible for only passing ids that live in this
// partition.
func (p *Partition) CloneTombstone(id int64) (*Partition, bool) {
	if _, ok := p.dead[id]; ok {
		return p, false
	}
	nd := make(map[int64]struct{}, len(p.dead)+1)
	for k := range p.dead {
		nd[k] = struct{}{}
	}
	nd[id] = struct{}{}
	return &Partition{N: p.N, W: p.W, Codes: p.Codes, IDs: p.IDs, dead: nd, detached: p.detached}, true
}

// Detach returns a shallow copy of the partition with the bulk arrays
// (Codes, IDs) dropped: a stub whose row and tombstone bookkeeping (N,
// W, dead set) stays resident while the bytes live in a disk extent.
// Stubs answer Live/IsDead/DeadCount and may be tombstoned copy-on-
// write (the dead set is RAM metadata); any code or id access must go
// through Hydrate first — ID panics on a stub rather than fabricate
// position ids.
func (p *Partition) Detach() *Partition {
	q := *p
	q.Codes, q.IDs = nil, nil
	q.detached = true
	return &q
}

// Hydrate returns a shallow copy of the stub with codes and ids
// attached — aliases into a pinned buffer-pool frame, valid only while
// the pin is held. The dead set is shared with the stub (immutable once
// published). ids may be nil only when the sealed partition had
// implicit position ids (hasIDs false at detach time; the caller tracks
// this in the extent metadata).
func (p *Partition) Hydrate(codes []uint8, ids []int64) *Partition {
	if len(codes) != p.N*p.W {
		panic("scan: Hydrate code length mismatch")
	}
	if ids != nil && len(ids) != p.N {
		panic("scan: Hydrate id count mismatch")
	}
	q := *p
	q.Codes, q.IDs = codes, ids
	q.detached = false
	return &q
}

// Compact returns a new partition holding only p's live rows, in their
// original relative order, with an empty tombstone set. A partition
// without tombstones compacts to a fresh header over the same (shared)
// arrays.
func (p *Partition) Compact() *Partition {
	if len(p.dead) == 0 {
		return &Partition{N: p.N, W: p.W, Codes: p.Codes, IDs: p.IDs}
	}
	codes := make([]uint8, 0, p.Live()*p.W)
	ids := make([]int64, 0, p.Live())
	for i := 0; i < p.N; i++ {
		id := p.ID(i)
		if p.IsDead(id) {
			continue
		}
		codes = append(codes, p.Code(i)...)
		ids = append(ids, id)
	}
	return &Partition{N: len(ids), W: p.W, Codes: codes, IDs: ids}
}

// Tombstone marks id as deleted. It reports whether the id was newly
// tombstoned (false when it already was). The caller is responsible for
// only passing ids that live in this partition.
func (p *Partition) Tombstone(id int64) bool {
	if _, ok := p.dead[id]; ok {
		return false
	}
	if p.dead == nil {
		p.dead = make(map[int64]struct{})
	}
	p.dead[id] = struct{}{}
	return true
}

// IsDead reports whether id has been tombstoned.
func (p *Partition) IsDead(id int64) bool {
	_, ok := p.dead[id]
	return ok
}

// HasDead reports whether any vector of the partition is tombstoned;
// kernels use it to keep the no-deletions scan free of per-vector map
// lookups.
func (p *Partition) HasDead() bool { return len(p.dead) > 0 }

// DeadCount returns the number of tombstoned vectors.
func (p *Partition) DeadCount() int { return len(p.dead) }

// Live returns the number of vectors that are not tombstoned.
func (p *Partition) Live() int { return p.N - len(p.dead) }

// DeadIDs returns the tombstoned ids in ascending order (persist writes
// them deterministically).
func (p *Partition) DeadIDs() []int64 {
	out := make([]int64, 0, len(p.dead))
	for id := range p.dead {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// RestoreDead reinstalls a tombstone set (persist's read path).
func (p *Partition) RestoreDead(ids []int64) {
	for _, id := range ids {
		p.Tombstone(id)
	}
}

// Stats describes one scan's dynamic behaviour: exact counts of vectors,
// groups and blocks, identical on every backend and in the model
// (internal/scan/model wraps it with the operation mix it prices).
type Stats struct {
	Scanned     int // vectors examined in total
	KeepScanned int // vectors scanned with plain PQ Scan in the keep phase
	LowerBounds int // SIMD lower-bound evaluations (FastScan)
	Pruned      int // vectors whose exact distance computation was pruned
	Candidates  int // exact pqdistance computations after a lower bound
	Groups      int // groups visited (FastScan)
	Blocks      int // 16-vector blocks processed (FastScan)
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
func ADC8(code []uint8, t quantizer.Tables) float32 {
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
	for i := 0; i < p.N; i++ {
		id := p.ID(i)
		if hasDead && p.IsDead(id) {
			continue
		}
		heap.Push(id, ADC8(p.Code(i), t))
	}
	return heap.Results(), Stats{Scanned: p.N}
}

// LibpqRange scans positions [lo, hi) of the partition into heap with
// the libpq optimization (§3.1): the 8 centroid indexes of a vector are
// fetched with a single 64-bit load and extracted with shifts, the
// distance accumulated in Naive's order. It is FastScan's keep phase
// and the body of the model's libpq baseline. Tombstoned vectors are
// skipped. A local copy of the heap threshold gates the Push
// call: a distance strictly above the full heap's root cannot be
// retained, so skipping the call changes nothing (ties still go through
// Push for the deterministic id-order rule).
func LibpqRange(p *Partition, lo, hi int, t quantizer.Tables, heap *topk.Heap) {
	codes, ids := p.Codes, p.IDs
	hasDead := p.HasDead()
	thr, full := heap.Threshold()
	for i := lo; i < hi; i++ {
		id := int64(i)
		if ids != nil {
			id = ids[i]
		}
		if hasDead && p.IsDead(id) {
			continue
		}
		word := binary.LittleEndian.Uint64(codes[i*M : i*M+M])
		d := t.Data[int(word&0xff)]
		d += t.Data[256+int(word>>8&0xff)]
		d += t.Data[2*256+int(word>>16&0xff)]
		d += t.Data[3*256+int(word>>24&0xff)]
		d += t.Data[4*256+int(word>>32&0xff)]
		d += t.Data[5*256+int(word>>40&0xff)]
		d += t.Data[6*256+int(word>>48&0xff)]
		d += t.Data[7*256+int(word>>56&0xff)]
		if full && d > thr {
			continue
		}
		if heap.Push(id, d) {
			if v, ok := heap.Threshold(); ok {
				thr, full = v, true
			}
		}
	}
}

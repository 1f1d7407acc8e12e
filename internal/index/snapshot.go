// Copy-on-write partition epochs: the concurrency core of the index.
//
// The serving state is an immutable Snapshot — an array of per-partition
// epochs — behind one atomic pointer. Queries load the pointer once and
// scan with no locks: everything reachable from a Snapshot is sealed
// (never mutated after publish), so a query's entire view is consistent
// no matter what mutations land concurrently. An epoch is an immutable
// base (its rows laid out for Fast Scan: the keep region row-major, the
// rest in packed blocks, with their ids; one extent when paged) plus a
// bounded tail of rows appended since the
// base was built plus the dead bits by position. Mutations build a
// successor off the serving path — sharing the base, copying only the
// tail (Add) or one chunk of dead bits (Delete) — and publish it with a
// single compare-and-swap of the snapshot pointer; a mutation therefore
// only contends with other mutations of the same partition (the
// per-partition builder locks), never with queries. Only the rebuild of
// compact.go makes a new base.
//
// See DESIGN.md §11 "Epochs, copy-on-write, and compaction" for the
// lifecycle and publish-ordering rules.
package index

import (
	"fmt"
	"sync"

	"pqfastscan/internal/scan"
)

// PartEpoch is one published, immutable version of a partition. Part is
// sealed: no code path mutates a partition reachable from a snapshot.
// Every epoch carries its Fast Scan layout from the moment it is
// constructed — built where its base is born (newEpoch), rebound to a
// successor that shares the base (successor) — and the layout is bound
// to Part, so it can never describe any other version: replacing the
// epoch replaces the scanner with it.
type PartEpoch struct {
	// Part holds the sealed codes, ids and dead bits of this epoch.
	Part *scan.Partition
	// Epoch is the global publish sequence number at creation; it only
	// grows, so operators can watch /stats to see partitions advance.
	Epoch uint64

	// fast is the epoch's PQ Fast Scan layout, bound to Part, whose
	// base it stores: the keep region row-major, every other base row
	// only in the packed blocks, with Part's dead bits by lane. Set at
	// construction and never changed.
	fast *scan.FastScan

	// paged, when non-nil, marks a disk-resident epoch: Part and fast
	// are stubs whose base and packed blocks live in this extent and
	// are pinned per probe (paging.go); the tail stays in RAM.
	// Successor epochs share their predecessor's extent — neither an
	// Add nor a Delete changes the base.
	paged *pagedExtent
}

// newEpoch returns a fresh epoch over p, whose base must be in Fast
// Scan order (scan.Ordered) under the index's options, with that base
// laid out — the one place an epoch's layout is built. The epoch's Part
// is the laid-out partition, which holds p's grouped rows in packed
// blocks only; p's row-major copy of them is left to the collector. The
// options were checked when the index was built or loaded and the base
// is ordered, so the build cannot fail; an error here is a broken
// invariant.
func (ix *Index) newEpoch(p *scan.Partition) *PartEpoch {
	fs, err := scan.NewFastScan(p, ix.opt.FastScan)
	if err != nil {
		panic(fmt.Sprintf("index: building a Fast Scan layout: %v", err))
	}
	return &PartEpoch{Part: fs.Partition(), Epoch: ix.epoch.Add(1), fast: fs}
}

// successor returns the epoch that follows cur when only its tail or
// its dead bits changed: next (cur.Part's CloneAppend or
// CloneTombstone) over cur's base — the same extent, and cur's Fast
// Scan layout rebound to next with lane tombstoned (-1 for none).
func (ix *Index) successor(cur *PartEpoch, next *scan.Partition, lane int) *PartEpoch {
	return &PartEpoch{Part: next, Epoch: ix.epoch.Add(1), fast: cur.fast.Rebind(next, lane), paged: cur.paged}
}

// view is the one way into an epoch's rows, RAM or paged: the partition
// with every row readable and its Fast Scan layout, both valid until
// release is called. A RAM epoch hands out Part and fast as they are,
// and its release does nothing. A paged epoch pins its extent in the
// buffer pool and hands out shallow views hydrated over the pinned
// payload, released by unpinning, so a caller pins only the partitions
// it visits, for as long as it reads them.
func (pe *PartEpoch) view() (p *scan.Partition, fs *scan.FastScan, release func(), err error) {
	if pe.paged != nil {
		return pe.paged.view(pe)
	}
	return pe.Part, pe.fast, noRelease, nil
}

// noRelease is a RAM epoch's release: nothing is pinned.
func noRelease() {}

// Snapshot is one immutable point-in-time view of every partition. A
// query (or a persist pass) loads it once and works entirely on it;
// concurrent publishes create new Snapshots and never touch old ones.
type Snapshot struct {
	Parts []*PartEpoch
}

// Live returns the number of vectors in the snapshot that are not
// tombstoned.
func (s *Snapshot) Live() int {
	total := 0
	for _, pe := range s.Parts {
		total += pe.Part.Live()
	}
	return total
}

// Snapshot returns the current serving snapshot. The returned value is
// immutable and remains valid (and internally consistent) indefinitely;
// it just stops being current once a mutation publishes a successor.
func (ix *Index) Snapshot() *Snapshot { return ix.snap.Load() }

// Partitions returns the number of coarse cells. It is fixed at
// construction; epochs replace partition contents, never the cell count.
func (ix *Index) Partitions() int { return len(ix.snap.Load().Parts) }

// Parts returns the sealed partitions of the current snapshot, in cell
// order — a convenience for tests, benchmarks and offline tooling that
// want the partition data without tracking epochs. The slice is freshly
// allocated; the partitions it points at are immutable. On a paged
// index each partition is materialized into RAM (fresh copies, no pin
// lifetimes); a failing extent read panics — offline tooling has no
// error channel and a torn cache file is unrecoverable here.
func (ix *Index) Parts() []*scan.Partition {
	s := ix.snap.Load()
	out := make([]*scan.Partition, len(s.Parts))
	for i, pe := range s.Parts {
		p, err := ix.materializePart(pe)
		if err != nil {
			panic(fmt.Sprintf("index: materializing paged partition %d: %v", i, err))
		}
		out[i] = p
	}
	return out
}

// install seeds the snapshot with freshly built partitions (Build and
// Restore), each base put in Fast Scan order (scan.Ordered) and its
// layout built over it — whatever order a file was
// written in; a base already in order, as every one this version saves
// is, is installed as it is. Not safe under concurrent
// use; callers own the index exclusively at that point.
func (ix *Index) install(parts []*scan.Partition) {
	pes := make([]*PartEpoch, len(parts))
	for i, p := range parts {
		pes[i] = ix.newEpoch(scan.Ordered(p, ix.opt.FastScan))
	}
	ix.partMu = make([]sync.Mutex, len(parts))
	ix.snap.Store(&Snapshot{Parts: pes})
}

// publishAt installs a fully built epoch into slot c by swapping in a
// new snapshot whose other slots are shared with the old one. The
// caller must hold ix.partMu[c], which makes slot c stable across the
// CAS loop; retries happen only when another partition publishes
// concurrently, so the loop is short and lock-free.
func (ix *Index) publishAt(c int, pe *PartEpoch) *PartEpoch {
	for {
		old := ix.snap.Load()
		parts := make([]*PartEpoch, len(old.Parts))
		copy(parts, old.Parts)
		parts[c] = pe
		if ix.snap.CompareAndSwap(old, &Snapshot{Parts: parts}) {
			return pe
		}
	}
}

// Copy-on-write partition epochs: the concurrency core of the index.
//
// The serving state is an immutable Snapshot — an array of per-partition
// epochs — behind one atomic pointer. Queries load the pointer once and
// scan with no locks: everything reachable from a Snapshot is sealed
// (never mutated after publish), so a query's entire view is consistent
// no matter what mutations land concurrently. An epoch is an immutable
// base (row-major codes and ids, the Fast Scan layout built from them,
// one extent when paged) plus a bounded tail of rows appended since the
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
	"sync/atomic"

	"pqfastscan/internal/scan"
)

// PartEpoch is one published, immutable version of a partition. Part is
// sealed: no code path mutates a partition reachable from a snapshot.
// The Fast Scan layout rides along with the epoch — it is built over
// Part's base, whose codes and ids it aliases, and bound to Part, so it
// can never describe any other version — which is what makes stale
// scanners unreachable: replacing the epoch replaces the scanner with
// it.
type PartEpoch struct {
	// Part holds the sealed codes, ids and dead bits of this epoch.
	Part *scan.Partition
	// Epoch is the global publish sequence number at creation; it only
	// grows, so operators can watch /stats to see partitions advance.
	Epoch uint64

	// fast is the epoch's PQ Fast Scan layout. A successor epoch rebinds
	// its predecessor's (successor), so warmth carries forward for free;
	// a fresh build (or restore) leaves it nil and the first Fast Scan
	// query constructs it under fastMu — a builder lock on the cold path
	// only, never the steady-state read path, which is one atomic load.
	fast   atomic.Pointer[scan.FastScan]
	fastMu sync.Mutex

	// paged, when non-nil, marks a disk-resident epoch: Part (and any
	// fast layout) are stubs whose base lives in this extent and is
	// pinned per probe (paging.go); the tail stays in RAM. Successor
	// epochs share their predecessor's extent — neither an Add nor a
	// Delete changes the base.
	paged *pagedExtent
}

// successor returns the epoch that follows cur when only its tail or
// its dead bits changed: next (cur.Part's CloneAppend or
// CloneTombstone) over cur's base — the same extent, and fs, cur's Fast
// Scan layout as the caller loaded it (nil when none was built),
// rebound to next with lane tombstoned (-1 for none).
func (ix *Index) successor(cur *PartEpoch, next *scan.Partition, fs *scan.FastScan, lane int) *PartEpoch {
	pe := &PartEpoch{Part: next, Epoch: ix.epoch.Add(1), paged: cur.paged}
	if fs != nil {
		pe.fast.Store(fs.Rebind(next, lane))
	}
	return pe
}

// view is the one way into an epoch's rows, RAM or paged: the partition
// with every row readable and, when fast, its Fast Scan layout under
// opt, both valid until release is called. A RAM epoch hands out Part
// and its cached layout, building the layout on first use — one atomic
// load on the steady-state path, the epoch's own builder lock on a cold
// one, so concurrent queries share one build — and its release does
// nothing. A paged epoch pins its extent in the buffer pool and hands
// out shallow views hydrated over the pinned payload, released by
// unpinning, so a caller pins only the partitions it visits, for as
// long as it reads them. Because the layout is cached on the epoch —
// not on the index — it can never outlive or predate the codes it
// describes.
func (pe *PartEpoch) view(opt scan.FastScanOptions, fast bool) (p *scan.Partition, fs *scan.FastScan, release func(), err error) {
	if pe.paged != nil {
		return pe.paged.view(pe, fast)
	}
	if !fast {
		return pe.Part, nil, noRelease, nil
	}
	if fs = pe.fast.Load(); fs == nil {
		pe.fastMu.Lock()
		defer pe.fastMu.Unlock()
		if fs = pe.fast.Load(); fs == nil {
			if fs, err = scan.NewFastScan(pe.Part, opt); err != nil {
				return nil, nil, nil, err
			}
			pe.fast.Store(fs)
		}
	}
	return pe.Part, fs, noRelease, nil
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
// Restore), each base put in Fast Scan order (scan.Ordered) so the
// layout built over it aliases its codes and ids — whatever order a
// file was written in; a base already in order, as every one this
// version saves is, is installed as it is. Not safe under concurrent
// use; callers own the index exclusively at that point.
func (ix *Index) install(parts []*scan.Partition) {
	pes := make([]*PartEpoch, len(parts))
	for i, p := range parts {
		pes[i] = &PartEpoch{Part: scan.Ordered(p, ix.opt.FastScan), Epoch: ix.epoch.Add(1)}
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

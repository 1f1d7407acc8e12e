package index

import (
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/vec"
)

// Capture is a consistent, immutable view of everything an index
// persists: the trained quantizers, the sealed per-cell partitions of
// one snapshot, and the id-allocator position. Partitions are shared
// (sealed, never mutated in place), so taking a Capture costs one
// atomic load plus a slice of pointers — cheap enough to run inside the
// durability layer's checkpoint critical section.
//
// On a paged index the capture pins every partition's extent and Parts
// holds hydrated views over the pinned payloads: the caller must call
// Release when done writing (persist does), after which the views are
// invalid. Pinned frames may exceed the pool capacity for the duration
// — the pool's invariant is resident ≤ capacity + pinned, and a
// checkpoint legitimately needs the whole index in flight. On a RAM
// index Release is a no-op and the capture lives forever.
type Capture struct {
	Dim    int
	Coarse vec.Matrix
	PQ     *quantizer.ProductQuantizer
	Opt    Options
	Parts  []*scan.Partition
	NextID int64

	release func()
}

// Release drops the extent pins backing a paged capture's partition
// views. Safe to call on any capture (no-op for RAM) and idempotent.
func (c *Capture) Release() {
	if c.release != nil {
		c.release()
		c.release = nil
	}
}

// Capture takes a point-in-time capture of the index. The allocator is
// read after the snapshot load, so NextID is at or past every id that
// appears in Parts — a reloaded index can never re-issue one of them.
// When the caller excludes concurrent mutations (as the checkpoint path
// does), the capture is exact: it holds precisely the acknowledged
// state at the point of the call. The error is always nil on a RAM
// index; on a paged index it surfaces a failed extent read.
func (ix *Index) Capture() (Capture, error) {
	s := ix.snap.Load()
	parts := make([]*scan.Partition, len(s.Parts))
	var releases []func()
	releaseAll := func() {
		for _, r := range releases {
			r()
		}
	}
	for i, pe := range s.Parts {
		p, _, rel, err := pe.view()
		if err != nil {
			releaseAll()
			return Capture{}, err
		}
		releases = append(releases, rel)
		parts[i] = p
	}
	return Capture{
		Dim:     ix.Dim,
		Coarse:  ix.Coarse,
		PQ:      ix.PQ,
		Opt:     ix.opt,
		Parts:   parts,
		NextID:  ix.nextID.Load(),
		release: releaseAll,
	}, nil
}

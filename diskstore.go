// Beyond-RAM serving, façade surface: WithDiskStore moves an index's
// partition data into disk-resident extents behind a capacity-bounded
// buffer pool (DESIGN.md §15, internal/index/paging.go). Queries and
// mutations keep their exact semantics — results are bit-identical to
// RAM-resident serving — while resident memory is bounded by the pool
// capacity plus whatever probes currently hold pinned.
package pqfastscan

import (
	"pqfastscan/internal/index"
)

// StoreStats is the observable state of an attached disk store: the
// directory, the live extent footprint, and the buffer pool counters
// (hits, misses, evictions, resident and pinned bytes). Served under
// "bufpool" on /stats.
type StoreStats = index.StoreStats

// DefaultPoolBytes is the buffer pool capacity used when none is given
// (WithDiskStore poolBytes <= 0, or PQ_STORE_DIR set without
// PQ_POOL_BYTES).
const DefaultPoolBytes = index.DefaultPoolBytes

// WithDiskStore migrates the index this handle serves to disk-resident
// extents under dir, paged through a buffer pool bounded at poolBytes
// (DefaultPoolBytes when <= 0). The store directory is owned by this
// process: attach sweeps files left by previous owners, and extents are
// a rebuildable cache — durability remains Save/WithWAL's job. Indexes
// attached to the same directory (a serving index and its staged swap
// replacement) share one pool. Attaching twice to the same dir is
// idempotent; to a different dir, an error.
func (ix *Index) WithDiskStore(dir string, poolBytes int64) error {
	if poolBytes <= 0 {
		poolBytes = DefaultPoolBytes
	}
	return ix.load().AttachStore(dir, poolBytes)
}

// StoreStats returns the attached store's counters; ok is false on a
// RAM-resident index.
func (ix *Index) StoreStats() (StoreStats, bool) { return ix.load().StoreStats() }

// autoAttach applies the PQ_STORE_DIR / PQ_POOL_BYTES environment to a
// freshly built or loaded index: when PQ_STORE_DIR is set, every index
// comes up disk-resident — the hook the CI paged-mode leg uses to run
// the whole test suite over the paging stack.
func autoAttach(in *index.Index) error {
	_, err := in.AttachStoreFromEnv()
	return err
}

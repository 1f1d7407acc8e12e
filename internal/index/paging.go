// Beyond-RAM serving: disk-resident partition extents behind an
// epoch-aware buffer pool (DESIGN.md §15).
//
// AttachStore seals every partition epoch's base as it is stored — the
// keep region's row-major codes, every row's uint32 id offset, and the
// grouped layout's packed blocks, which are the other rows' codes —
// into one immutable extent file per base, and
// replaces the snapshot's epochs with stubs: RAM-resident metadata
// (row counts, dead bits, the group directory, the id base and the
// spilled ids, the tail of rows appended since the base was built)
// whose base slices are nil. A
// probe that visits a partition pins its extent in the buffer
// pool, hydrates transient shallow views over the pinned payload, scans
// them exactly as it would RAM-resident slices — the payload buffer is
// 64-byte aligned and sections are 64-byte aligned within it, so the
// asm kernels scan paged-in blocks zero-copy — and unpins on the way
// out.
//
// Epochs make eviction safe: extents are write-once and named by
// (attach instance, partition, epoch), so nothing ever rewrites an
// extent. An Add or a Delete writes none — its epoch shares its
// predecessor's; a rebuild (compact.go: a fold, a compaction) writes a
// new one and publishes a new stub epoch. A query holding a pin on
// epoch e keeps scanning e's (immutable) bytes while e+1 is published;
// once the last reference to the extent drops, a finalizer forgets the
// pool frame and removes the file. Extents are a
// node-local cache, not durable state: the v3 snapshot + WAL remain
// the durability story, and attach rebuilds extents from the loaded
// index, sweeping whatever a previous owner left in the directory.
package index

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"pqfastscan/internal/bufpool"
	"pqfastscan/internal/extent"
	"pqfastscan/internal/fsio"
	"pqfastscan/internal/layout"
	"pqfastscan/internal/scan"
)

// StoreStats is the observable state of an attached disk store: the
// directory, the live extent footprint, and the buffer pool counters.
type StoreStats struct {
	Dir         string        `json:"dir"`
	ExtentBytes int64         `json:"extent_bytes"` // payload bytes across live extents
	Pool        bufpool.Stats `json:"pool"`
}

// Paging is the shared per-directory paging state: the extent store
// and its buffer pool. One Paging exists per store directory per
// process (see openPaging), so an index and its staged swap
// replacement share one capacity-bounded pool.
type Paging struct {
	store       *extent.Store
	pool        *bufpool.Pool
	extentBytes atomic.Int64
}

var (
	pagingMu sync.Mutex
	pagings  = map[string]*Paging{}
	// pagingInst numbers AttachStore calls process-wide; extent names
	// carry it so two indexes sharing a directory (a serving index and
	// its staged swap replacement) never collide on (partition, epoch).
	pagingInst atomic.Uint64
)

// openPaging returns the process-wide Paging for dir, creating it — and
// sweeping every file a previous owner left behind (orphaned temp files
// and stale extents are both rebuildable garbage) — on first use.
// poolBytes bounds the buffer pool; it is fixed at creation, later
// opens of the same dir join the existing pool. opts are applied only
// at creation (test hooks).
func openPaging(dir string, poolBytes int64, opts ...bufpool.Option) (*Paging, error) {
	pagingMu.Lock()
	defer pagingMu.Unlock()
	if pg, ok := pagings[dir]; ok {
		return pg, nil
	}
	if poolBytes <= 0 {
		return nil, fmt.Errorf("index: non-positive pool capacity %d", poolBytes)
	}
	st, err := extent.Open(fsio.OS, dir)
	if err != nil {
		return nil, err
	}
	if _, err := st.SweepOrphans(nil); err != nil {
		return nil, fmt.Errorf("index: sweeping store dir %s: %w", dir, err)
	}
	pg := &Paging{store: st}
	pg.pool = bufpool.New(poolBytes, func(id string) ([]byte, error) {
		p, err := st.Read(id)
		if err != nil {
			return nil, err
		}
		return p.Bytes(), nil
	}, opts...)
	pagings[dir] = pg
	return pg, nil
}

// PoolStats returns the shared pool's counters.
func (pg *Paging) PoolStats() bufpool.Stats { return pg.pool.Stats() }

// pspan is a section's location within an extent payload.
type pspan struct{ off, n int64 }

// pagedExtent is the stable identity of one partition base's sealed
// payload on disk, plus the section geometry needed to hydrate stubs
// from a pinned payload without re-reading the header. It is shared
// between an epoch and its successors by Add and Delete (neither
// changes the base), and across indexes that share epochs
// (RestrictCells). When the last sharing epoch becomes unreachable, the
// finalizer drops the pool frame and the file.
type pagedExtent struct {
	pg    *Paging
	name  string
	bytes int64

	codes, ids, blocks pspan
}

// view pins the extent and returns the partition and its Fast Scan
// layout hydrated over the pinned payload: shallow views that alias the
// pool frame and are valid only until release is called.
func (x *pagedExtent) view(pe *PartEpoch) (*scan.Partition, *scan.FastScan, func(), error) {
	buf, err := x.pg.pool.Pin(x.name)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("index: pinning extent %s: %w", x.name, err)
	}
	sec := func(sp pspan) []byte { return buf[sp.off : sp.off+sp.n : sp.off+sp.n] }
	p := pe.Part.Hydrate(sec(x.codes), extent.BytesUint32(sec(x.ids)), sec(x.blocks))
	fs := pe.fast.Hydrate(p)
	release := func() { x.pg.pool.Unpin(x.name) }
	return p, fs, release, nil
}

// writeExtent seals the base of fast's partition, as it is stored
// (scan.Partition.Stored), into a new extent and returns the paged
// handle plus the detached stubs to publish in their place; a tail
// stays with the stub, in RAM. The finalizer on the handle
// garbage-collects the file once no epoch references it.
func (pg *Paging) writeExtent(name string, fast *scan.FastScan) (*pagedExtent, *scan.Partition, *scan.FastScan, error) {
	x := &pagedExtent{pg: pg, name: name}
	var b extent.Builder
	add := func(secName string, data []byte) pspan {
		sp := pspan{off: b.PayloadBytes(), n: int64(len(data))}
		b.Add(secName, data)
		return sp
	}
	// The tail is not sealed: Detach keeps it, and the id base and the
	// spill with it.
	part := fast.Partition()
	codes, idOff, blocks := part.Stored()
	x.codes = add("codes", codes)
	x.ids = add("ids", extent.Uint32Bytes(idOff))
	x.blocks = add("blocks", blocks)
	n, err := pg.store.Write(name, &b)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("index: writing extent %s: %w", name, err)
	}
	x.bytes = n
	pg.extentBytes.Add(n)
	runtime.SetFinalizer(x, (*pagedExtent).gc)

	stubPart := part.Detach()
	return x, stubPart, fast.Detach(stubPart), nil
}

// gc reclaims an unreferenced extent: no epoch points here anymore, so
// no future pin can occur — drop the (necessarily unpinned) pool frame
// and the file. Runs on the finalizer goroutine; failures are ignored
// because the attach-time sweep removes stragglers on the next boot.
func (x *pagedExtent) gc() {
	x.pg.pool.Forget(x.name)
	x.pg.extentBytes.Add(-x.bytes)
	_ = x.pg.store.Remove(x.name)
}

// extentName names partition c's epoch-e extent for this index's attach
// instance.
func (ix *Index) extentName(c int, epoch uint64) string {
	return fmt.Sprintf("i%d-p%d-e%d", ix.pgInst, c, epoch)
}

// AttachStore migrates the index to disk-resident serving: every
// partition epoch's bulk data moves into an extent under dir and the
// snapshot holds stubs that page data in through a buffer pool bounded
// at poolBytes. Search results are bit-identical to RAM-resident
// serving; mutations keep working (they write new extents). One store
// directory must be owned by one process at a time — attach sweeps
// files left by previous owners. Attaching twice is idempotent for the
// same dir and an error for a different one.
func (ix *Index) AttachStore(dir string, poolBytes int64) error {
	return ix.attachStore(dir, poolBytes)
}

func (ix *Index) attachStore(dir string, poolBytes int64, opts ...bufpool.Option) error {
	pg, err := openPaging(dir, poolBytes, opts...)
	if err != nil {
		return err
	}
	// Freeze every partition builder: no mutation can publish while the
	// snapshot is migrated. Queries are unaffected — they keep scanning
	// the old (RAM-resident) snapshot until the swap below.
	for c := range ix.partMu {
		ix.partMu[c].Lock()
	}
	defer func() {
		for c := range ix.partMu {
			ix.partMu[c].Unlock()
		}
	}()
	if ix.pg != nil {
		if ix.pg == pg {
			return nil
		}
		return fmt.Errorf("index: already attached to store %s", ix.pg.store.Dir())
	}
	inst := pagingInst.Add(1)

	s := ix.snap.Load()
	parts := make([]*PartEpoch, len(s.Parts))
	for c, pe := range s.Parts {
		if pe.paged != nil {
			// Shared from an already-paged index (RestrictCells).
			parts[c] = pe
			continue
		}
		name := fmt.Sprintf("i%d-p%d-e%d", inst, c, pe.Epoch)
		x, stubP, stubF, err := pg.writeExtent(name, pe.fast)
		if err != nil {
			return err
		}
		parts[c] = &PartEpoch{Part: stubP, Epoch: pe.Epoch, fast: stubF, paged: x}
	}
	ix.pg = pg
	ix.pgInst = inst
	// Plain store: every builder lock is held, so no publisher races the
	// swap; queries atomically move from the RAM epochs to the stubs.
	ix.snap.Store(&Snapshot{Parts: parts})
	return nil
}

// DefaultPoolBytes is the buffer pool capacity applied when none is
// chosen explicitly: PQ_STORE_DIR set without PQ_POOL_BYTES, or the
// facade's WithDiskStore called with poolBytes <= 0.
const DefaultPoolBytes int64 = 256 << 20

// AttachStoreFromEnv applies the PQ_STORE_DIR / PQ_POOL_BYTES
// environment: when PQ_STORE_DIR is set the index moves to
// disk-resident serving under its own proc-<pid> subdirectory (so
// parallel processes sharing the variable never sweep each other's
// extents), with the pool bounded at PQ_POOL_BYTES (DefaultPoolBytes
// when unset). It reports whether a store was attached. The facade's
// Build and Load paths all funnel through here, so the environment
// means the same thing to every index a process serves from.
func (ix *Index) AttachStoreFromEnv() (bool, error) {
	dir := os.Getenv("PQ_STORE_DIR")
	if dir == "" {
		return false, nil
	}
	poolBytes := DefaultPoolBytes
	if s := os.Getenv("PQ_POOL_BYTES"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v <= 0 {
			return false, fmt.Errorf("index: invalid PQ_POOL_BYTES %q", s)
		}
		poolBytes = v
	}
	return true, ix.AttachStore(filepath.Join(dir, fmt.Sprintf("proc-%d", os.Getpid())), poolBytes)
}

// Paged reports whether the index serves from a disk store.
func (ix *Index) Paged() bool { return ix.pg != nil }

// StoreStats returns the attached store's observable state, or false
// when the index is RAM-resident.
func (ix *Index) StoreStats() (StoreStats, bool) {
	if ix.pg == nil {
		return StoreStats{}, false
	}
	return StoreStats{
		Dir:         ix.pg.store.Dir(),
		ExtentBytes: ix.pg.extentBytes.Load(),
		Pool:        ix.pg.pool.Stats(),
	}, true
}

// materializePart returns the epoch's partition free of pin lifetimes,
// for offline tooling (Parts, FastScanner): Part itself on a RAM epoch;
// on a paged one a copy whose base — keep codes, id offsets and packed blocks,
// the layout with them — is copied out of the pinned frame, its tail
// and dead bits shared.
func (ix *Index) materializePart(pe *PartEpoch) (*scan.Partition, error) {
	if pe.paged == nil {
		return pe.Part, nil
	}
	p, _, release, err := pe.view()
	if err != nil {
		return nil, err
	}
	defer release()
	codes, idOff, blocks := p.Stored()
	return pe.Part.Hydrate(append([]uint8(nil), codes...), append([]uint32(nil), idOff...), append(layout.AlignedBytes(0, len(blocks)), blocks...)), nil
}

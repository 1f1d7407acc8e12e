package pqfastscan

import (
	"context"
	"fmt"

	"pqfastscan/internal/index"
)

// Searcher is the query surface of the package: one context-aware entry
// point for single-query execution and one for batches. *Index implements
// it directly; Index.With returns derived Searchers with options (e.g. a
// multi-probe or instrumented view) pre-applied, so single-query,
// multi-probe and batch execution all flow through the same interface.
type Searcher interface {
	// Search returns the k approximate nearest neighbors of query.
	Search(ctx context.Context, query []float32, k int, opts ...SearchOption) (*SearchResult, error)
	// SearchBatch answers every query row concurrently (one goroutine
	// per core, the paper's deployment model) and returns per-query
	// results in order.
	SearchBatch(ctx context.Context, queries Matrix, k int, opts ...SearchOption) ([]*SearchResult, error)
}

// SearchOption customizes one search; the zero configuration is the
// default (PQ Fast Scan, single-cell routing, no statistics).
type SearchOption func(*searchConfig)

type searchConfig struct {
	kernel  Kernel
	model   bool // the deprecated WithEngine shim
	backend Backend
	nprobe  int // 0: open — one cell, or the recall target's prefix
	cells   []int
	recall  float64
	stats   bool
	err     error // the first option value no search can honor
}

// WithKernel selects the scan kernel. All kernels return identical
// results; they differ only in cost.
func WithKernel(k Kernel) SearchOption {
	return func(c *searchConfig) { c.kernel = k }
}

// WithBackend pins Fast Scan's block kernels to one backend — the
// hand-written assembly kernels (BackendAVX512VBMI or BackendAVX2) or
// the portable BackendSWAR fallback — instead of the startup
// feature detection (BackendAuto, the default; see ActiveBackend).
// Every backend returns bit-identical results, and the backends of one
// bound bit-identical statistics (see Backend); this option exists for
// benchmarking, regression hunting and the cross-backend tests. Requesting a backend
// the machine cannot run is rejected by the search call.
func WithBackend(b Backend) SearchOption {
	return func(c *searchConfig) { c.backend = b }
}

// WithNProbe scans the nprobe closest partitions and merges their
// results, trading latency for recall. nprobe must be in
// [1, Partitions]; any other value (including 0) is rejected by the
// search call.
func WithNProbe(nprobe int) SearchOption {
	return func(c *searchConfig) {
		if nprobe < 1 {
			c.reject(fmt.Errorf("pqfastscan: nprobe must be positive, got %d", nprobe))
		}
		c.nprobe = nprobe
	}
}

// WithCells scans exactly the listed IVF cells, in order, instead of
// routing the query through the coarse quantizer. It is the shard-side
// half of scatter-gather cluster serving (internal/cluster, cmd/pqrouter):
// the router ranks cells against the coarse centroids once and tells
// each shard which of its cells to scan — and it is equally useful for
// tests and tools pinning a scan to known cells. Results are identical
// to a multi-probe search visiting the same set. Cells must be in
// range and free of duplicates, and combining WithCells with any
// WithNProbe is rejected: the options answer the same question two
// different ways.
func WithCells(cells ...int) SearchOption {
	return func(c *searchConfig) { c.cells = cells }
}

// WithTargetRecall probes the closest cells until they hold fraction r
// of the live rows, for r in (0, 1]; any other r is rejected by the
// search call. It is a coverage target, not a measured recall: on the
// standing benchmark's corpus one probe measures recall@100 of 0.5666.
// The prefix is cut from the WithNProbe ranking and weighed on the
// snapshot the query scans (DESIGN.md §16), so the answer is exactly
// that of WithNProbe(len(Partitions)). WithNProbe and WithCells win
// over it; with SearchBatch every row gets its own prefix.
func WithTargetRecall(r float64) SearchOption {
	return func(c *searchConfig) {
		// The affirmative range check also rejects NaN.
		if !(r > 0 && r <= 1) {
			c.reject(fmt.Errorf("pqfastscan: target recall must be in (0, 1], got %g", r))
		}
		c.recall = r
	}
}

// WithStats attaches the scan statistics — vectors scanned, lower
// bounds evaluated, candidates re-checked, pruning power — to the
// SearchResult, for instrumentation and experiments. They are the
// counters of the scan that answered the query, identical on every
// backend (and to the instruction-counting model's, which the tests of
// internal/scan/model hold them to); it pins nothing and composes with
// every other option.
func WithStats() SearchOption {
	return func(c *searchConfig) { c.stats = true }
}

// SearchResult is one query's rich answer.
type SearchResult struct {
	// Results are the k nearest neighbors, ascending by distance.
	Results []Result
	// Stats describes the scan's dynamic behaviour; nil unless the
	// search ran WithStats.
	Stats *Stats
	// Partitions lists the IVF cells probed, in visit order.
	Partitions []int
}

// Search returns the k approximate nearest neighbors of query. The
// context is honored between partition scans, so cancellation and
// deadlines (context.WithDeadline) cut multi-probe queries short instead
// of letting them run to completion. Options select the kernel, the
// number of cells probed, and statistics collection.
func (ix *Index) Search(ctx context.Context, query []float32, k int, opts ...SearchOption) (*SearchResult, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	resp, err := ix.load().Query(ctx, index.Request{
		Query: query, K: k, Kernel: cfg.kernel,
		Backend: cfg.backend, NProbe: cfg.nprobe, Cells: cfg.cells,
		Recall: cfg.recall,
	})
	if err != nil {
		return nil, err
	}
	return toSearchResult(resp, cfg.stats), nil
}

// SearchBatch answers every row of queries concurrently and returns
// per-query results in query order. Cancelling ctx stops workers between
// partition scans.
func (ix *Index) SearchBatch(ctx context.Context, queries Matrix, k int, opts ...SearchOption) ([]*SearchResult, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	resps, err := ix.load().QueryBatch(ctx, queries, index.Request{
		K: k, Kernel: cfg.kernel,
		Backend: cfg.backend, NProbe: cfg.nprobe, Cells: cfg.cells,
		Recall: cfg.recall,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*SearchResult, len(resps))
	for i, r := range resps {
		out[i] = toSearchResult(r, cfg.stats)
	}
	return out, nil
}

// resolveOptions applies opts over the default configuration (PQ Fast
// Scan, single-cell routing) and rejects values no search can honor.
func resolveOptions(opts []SearchOption) (searchConfig, error) {
	cfg := searchConfig{kernel: KernelFastScan}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return cfg, cfg.err
	}
	if cfg.model && cfg.kernel != KernelNaive {
		return cfg, fmt.Errorf("pqfastscan: no search runs kernel %v on the instruction-counting model any more: it is internal/scan/model, driven by cmd/pqbench; drop the deprecated WithEngine", cfg.kernel)
	}
	return cfg, nil
}

// reject records the first invalid option value; resolveOptions returns
// it.
func (c *searchConfig) reject(err error) {
	if c.err == nil {
		c.err = err
	}
}

func toSearchResult(r *index.Response, withStats bool) *SearchResult {
	sr := &SearchResult{Results: r.Results, Partitions: r.Partitions}
	if withStats {
		stats := r.Stats
		sr.Stats = &stats
	}
	return sr
}

// With returns a Searcher that applies opts before each call's own
// options — a reusable preconfigured view of the index. For example,
// idx.With(WithNProbe(4)) is a multi-probe Searcher, and
// idx.With(WithKernel(KernelNaive), WithStats()) an instrumented
// baseline one.
func (ix *Index) With(opts ...SearchOption) Searcher {
	return &optionedSearcher{ix: ix, opts: opts}
}

type optionedSearcher struct {
	ix   *Index
	opts []SearchOption
}

func (s *optionedSearcher) Search(ctx context.Context, query []float32, k int, opts ...SearchOption) (*SearchResult, error) {
	return s.ix.Search(ctx, query, k, append(append([]SearchOption(nil), s.opts...), opts...)...)
}

func (s *optionedSearcher) SearchBatch(ctx context.Context, queries Matrix, k int, opts ...SearchOption) ([]*SearchResult, error) {
	return s.ix.SearchBatch(ctx, queries, k, append(append([]SearchOption(nil), s.opts...), opts...)...)
}

var _ Searcher = (*Index)(nil)
var _ Searcher = (*optionedSearcher)(nil)

// Add encodes one vector against the trained quantizers and appends it
// to its partition's tail online — a copy of at most 16 KiB, whatever
// the size of the partition; every 1 024th Add into a partition also
// folds the tail into the partition's Fast Scan layout. It returns the
// assigned id. The index needs no rebuild: subsequent searches see the
// vector immediately, with results identical to an index rebuilt from
// scratch over the same vectors.
func (ix *Index) Add(vector []float32) (int64, error) {
	m := Matrix{Data: vector, Dim: len(vector)}
	ids, err := ix.addDurable(m)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddBatch indexes every row of vectors online and returns the assigned
// ids in row order.
func (ix *Index) AddBatch(vectors Matrix) ([]int64, error) {
	return ix.addDurable(vectors)
}

// ErrNotFound is returned by Delete when the id is not live in the
// index: never assigned, already deleted, or replaced with a snapshot
// swap. Test with errors.Is.
var ErrNotFound = index.ErrNotFound

// Delete removes the vector with the given id from future search
// results by publishing a copy-on-write tombstone epoch of its
// partition: in-flight searches keep the snapshot they loaded, later
// searches skip the id. The code stays in its partition block until the
// online compactor reclaims it (Compact, or the serving layer's
// background policy). It returns ErrNotFound when the id was never
// assigned or is no longer live.
func (ix *Index) Delete(id int64) error {
	return ix.deleteDurable(id)
}

// PartitionStat describes one IVF cell's occupancy: live and tombstoned
// row counts, the dead ratio compaction policies act on, the rows in its
// tail awaiting a fold, and the epoch number of its currently published
// version.
type PartitionStat = index.PartitionStat

// PartitionStats returns per-partition live/dead/tail/epoch counters
// from the current snapshot.
func (ix *Index) PartitionStats() []PartitionStat { return ix.load().PartitionStats() }

// CompactionResult reports one partition compaction: how many
// tombstoned rows were reclaimed and the epoch published.
type CompactionResult = index.CompactionResult

// Compact rebuilds, online, every partition whose dead ratio is at
// least minDeadRatio, removing tombstoned codes. Compaction runs off
// the serving path: searches never block, and results are identical
// before and after (deleted ids were already excluded). It returns the
// partitions actually compacted.
func (ix *Index) Compact(minDeadRatio float64) ([]CompactionResult, error) {
	return ix.load().Compact(minDeadRatio)
}

// CompactPartition compacts one partition unconditionally (no-op when it
// holds no tombstones).
func (ix *Index) CompactPartition(part int) (CompactionResult, error) {
	return ix.load().CompactPartition(part)
}

// Live returns the number of indexed vectors that have not been deleted.
func (ix *Index) Live() int { return ix.load().Live() }

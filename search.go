package pqfastscan

import (
	"context"
	"fmt"

	"pqfastscan/internal/index"
	"pqfastscan/internal/plan"
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
	kernel   Kernel
	model    bool // the deprecated WithEngine shim
	backend  Backend
	nprobe   int
	cells    []int
	parallel bool
	stats    bool

	// Planning (WithAuto / WithTargetRecall). The *Set flags record
	// which of the planner's two knobs the caller pinned explicitly: it
	// fills only the open ones, so explicit options always win (conflict
	// semantics pinned by TestAutoConflictSemantics).
	auto        bool
	recall      float64
	recallSet   bool
	nprobeSet   bool
	parallelSet bool
}

// WithKernel selects the scan kernel. All kernels return identical
// results; they differ only in cost.
func WithKernel(k Kernel) SearchOption {
	return func(c *searchConfig) { c.kernel = k }
}

// WithBackend pins Fast Scan's block kernels to one backend — the
// hand-written assembly kernels (BackendAVX2 on amd64, BackendNEON on
// arm64) or the portable BackendSWAR fallback — instead of the startup
// feature detection (BackendAuto, the default; see ActiveBackend).
// Every backend returns bit-identical results and statistics; only
// wall-clock speed differs, so this option exists for benchmarking,
// regression hunting and the cross-backend tests. Requesting a backend
// the machine cannot run is rejected by the search call.
func WithBackend(b Backend) SearchOption {
	return func(c *searchConfig) { c.backend = b }
}

// WithNProbe scans the nprobe closest partitions and merges their
// results, trading latency for recall. nprobe must be in
// [1, Partitions]; any other value (including 0) is rejected by the
// search call.
func WithNProbe(nprobe int) SearchOption {
	return func(c *searchConfig) { c.nprobe = nprobe; c.nprobeSet = true }
}

// WithCells scans exactly the listed IVF cells, in order, instead of
// routing the query through the coarse quantizer. It is the shard-side
// half of scatter-gather cluster serving (internal/cluster, cmd/pqrouter):
// the router ranks cells against the coarse centroids once and tells
// each shard which of its cells to scan — and it is equally useful for
// tests and tools pinning a scan to known cells. Results are identical
// to a multi-probe search visiting the same set. Cells must be in
// range and free of duplicates, and combining WithCells with
// WithNProbe(>1) is rejected: the options answer the same question two
// different ways.
func WithCells(cells ...int) SearchOption {
	return func(c *searchConfig) { c.cells = cells }
}

// WithParallel scans the probed partitions of a single query
// concurrently (one goroutine per cell, capped at GOMAXPROCS) instead of
// sequentially. Results are identical. The work is not: a sequential
// multi-probe carries one running top-k from cell to cell, so later
// cells prune against the bound the earlier ones reached, while
// parallel cells are independent scans that share nothing and each
// re-learn their own threshold — more total CPU for less wall-clock
// when cores are idle. It is opt-in because the paper measures
// single-core scans, and it only engages when more than one partition
// is probed. A planned query (WithAuto) that leaves it off lets the
// planner turn it on for probes that touch a disk-resident partition.
// SearchBatch ignores it: the batch already runs one worker per core,
// and nesting per-query parallelism would only oversubscribe.
//
// Combining WithParallel with WithStats is fully supported: each
// partition scan keeps its own counters and they are merged in
// deterministic cell-visit order after the workers join. The attached
// Stats are those of the independent scans — Scanned equals the
// sequential multi-probe's, Pruned is lower by what carrying the
// threshold is worth. A test pins both on its fixture.
func WithParallel() SearchOption {
	return func(c *searchConfig) { c.parallel = true; c.parallelSet = true }
}

// WithAuto lets the planner (internal/plan, DESIGN.md §16) choose the
// query's probe set: how many cells to probe and whether to probe them
// sequentially or in parallel, from what the index snapshot says —
// partition sizes and dead ratios along the cell ranking, and whether a
// probed partition is disk-resident. Without a recall target it probes
// the single closest cell; it fans out only probes that touch a
// disk-resident partition, and only with more than one core to use.
//
// The planner does not choose the scan: a planned query runs what an
// unplanned one runs — PQ Fast Scan on the automatic backend — unless
// WithKernel or WithBackend pin something else. Its probe set is always
// a prefix of the WithNProbe ranking, so a planned query returns
// exactly what the fixed-option query built from its decision would.
// Explicit options always override it: combining WithAuto with
// WithNProbe or WithParallel pins that knob and plans only the other;
// WithCells pins routing entirely and leaves parallelism to plan.
func WithAuto() SearchOption {
	return func(c *searchConfig) { c.auto = true }
}

// WithTargetRecall asks the planner for the smallest probe set expected
// to reach recall r in (0, 1]: it probes the closest cells until they
// cover at least fraction r of the live database mass (the structural
// surrogate for routing recall — see DESIGN.md §16), and plans
// parallelism as WithAuto does. It implies WithAuto; any other r is
// rejected by the search call.
func WithTargetRecall(r float64) SearchOption {
	return func(c *searchConfig) { c.auto = true; c.recall = r; c.recallSet = true }
}

// WithStats attaches the scan statistics — vectors scanned, lower
// bounds evaluated, candidates re-checked, pruning power — to the
// SearchResult, for instrumentation and experiments. They are the
// counters of the scan that answered the query, identical on every
// backend (and to the instruction-counting model's, which the tests of
// internal/scan/model hold them to); it pins nothing and composes with
// every other option. With WithParallel, per-partition counters merge
// deterministically (see WithParallel), never racing and never silently
// disabling collection.
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
	cfg = ix.expandAuto(cfg, query)
	resp, err := ix.load().Query(ctx, index.Request{
		Query: query, K: k, Kernel: cfg.kernel,
		Backend: cfg.backend, NProbe: cfg.nprobe, Cells: cfg.cells,
		Parallel: cfg.parallel,
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
	// One Request serves the whole batch, so the planner sees the first
	// row: batches are assumed homogeneous. An empty batch has nothing to
	// plan.
	if queries.Rows() > 0 {
		cfg = ix.expandAuto(cfg, queries.Row(0))
	}
	resps, err := ix.load().QueryBatch(ctx, queries, index.Request{
		K: k, Kernel: cfg.kernel,
		Backend: cfg.backend, NProbe: cfg.nprobe, Cells: cfg.cells,
		Parallel: cfg.parallel,
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
	cfg := searchConfig{kernel: KernelFastScan, nprobe: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.nprobe < 1 {
		return cfg, fmt.Errorf("pqfastscan: nprobe must be positive, got %d", cfg.nprobe)
	}
	if cfg.model && cfg.kernel != KernelNaive {
		return cfg, fmt.Errorf("pqfastscan: no search runs kernel %v on the instruction-counting model any more: it is internal/scan/model, driven by cmd/pqbench; drop the deprecated WithEngine", cfg.kernel)
	}
	if cfg.recallSet && (cfg.recall <= 0 || cfg.recall > 1) {
		return cfg, fmt.Errorf("pqfastscan: target recall must be in (0, 1], got %g", cfg.recall)
	}
	return cfg, nil
}

// expandAuto runs the planner over the knobs the caller left open and
// writes its decision into the configuration — the point where
// WithAuto/WithTargetRecall become the concrete options an explicit
// query would carry.
func (ix *Index) expandAuto(cfg searchConfig, query []float32) searchConfig {
	if !cfg.auto {
		return cfg
	}
	req := plan.Request{
		Query:        query,
		Recall:       cfg.recall,
		PlanNProbe:   !cfg.nprobeSet && len(cfg.cells) == 0,
		PlanParallel: !cfg.parallelSet,
		FixedNProbe:  cfg.nprobe,
		Cells:        cfg.cells,
	}
	d := plan.Decide(ix.load(), req)
	if req.PlanNProbe {
		cfg.nprobe = d.NProbe
	}
	if d.Parallel {
		cfg.parallel = true
	}
	return cfg
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

// Package pqfastscan is a Go implementation of PQ Fast Scan, the
// high-performance nearest-neighbor search algorithm of
//
//	F. André, A.-M. Kermarrec, N. Le Scouarnec.
//	"Cache locality is not enough: High-Performance Nearest Neighbor
//	Search with Product Quantization Fast Scan". PVLDB 9(4), 2015.
//
// It provides the complete system the paper describes: product
// quantization (PQ), the IVFADC inverted index, PQ Scan (naive and
// libpq) and PQ Fast Scan itself — small lookup tables sized to fit SIMD
// registers, computing lower bounds that prune more than 95 % of exact
// distance computations while returning exactly the same results as PQ
// Scan.
//
// # Quickstart
//
//	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 42})
//	learn := gen.Generate(20000)
//	base := gen.Generate(200000)
//
//	idx, err := pqfastscan.Build(learn, base, pqfastscan.DefaultBuildOptions())
//	...
//	res, err := idx.Search(ctx, query, 100)
//	...
//	ids, err := idx.AddBatch(newVectors) // online ingestion, no rebuild
//
// Search takes functional options (WithKernel, WithNProbe,
// WithTargetRecall, WithStats) and honors context cancellation and
// deadlines; the index is mutable online through Add, AddBatch and
// Delete. One engine serves every query; the instruction-counting model
// it is checked against, with the paper's remaining baselines, is a
// laboratory behind cmd/pqbench (internal/scan/model). An *Index is
// also a swappable snapshot holder (Swap), the hook behind the
// hot-reloading network service in internal/server and cmd/pqserve. See
// the examples directory for complete programs and DESIGN.md for the API
// shape, the mutation semantics, the persist format, the engine and its
// model (§9) and the serving architecture (§10).
package pqfastscan

import (
	"fmt"
	"sync/atomic"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/persist"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/vec"
)

// Matrix is a dense row-major set of float32 vectors. Dim is the
// dimensionality of each row.
type Matrix = vec.Matrix

// NewMatrix allocates an n x dim matrix.
func NewMatrix(n, dim int) Matrix { return vec.NewMatrix(n, dim) }

// Result is one nearest-neighbor answer: the database vector id and its
// (squared Euclidean, asymmetric) distance to the query.
type Result = index.Result

// Kernel selects the scan a search is answered with.
type Kernel = index.Kernel

// The kernels a search can name. KernelFastScan is the paper's
// contribution and the default; KernelLibpq is the tuned exact PQ Scan
// it is evaluated against and KernelNaive the scalar oracle (Algorithm 1
// verbatim). All three return identical results.
const (
	KernelNaive    = index.KernelNaive
	KernelLibpq    = index.KernelLibpq
	KernelFastScan = index.KernelFastScan
)

// Kernels lists every kernel a search can name, baselines first.
func Kernels() []Kernel { return []Kernel{KernelNaive, KernelLibpq, KernelFastScan} }

// Engine is a leftover of the two-engine design: one engine serves now,
// and the instruction-counting model is a laboratory of its own
// (internal/scan/model, driven by cmd/pqbench; DESIGN.md §9).
//
// Deprecated: kept until the frozen benchmark/ module stops spelling
// WithEngine(EngineModel) (ROADMAP item 1f).
type Engine int

// Deprecated: see Engine.
const (
	EngineModel Engine = iota
	EngineNative
)

// WithEngine is accepted where it is true and refused where it would
// lie: EngineNative is what every search runs and changes nothing;
// EngineModel is honoured with KernelNaive, whose scalar loop is the
// model's own oracle, and with any other kernel the search call fails,
// naming where the model now lives.
//
// Deprecated: see Engine.
func WithEngine(e Engine) SearchOption {
	return func(c *searchConfig) { c.model = e == EngineModel }
}

// Backend names Fast Scan's block-kernel implementation: asm-avx512vbmi
// (the exact 8-bit bound, on amd64 with AVX-512 VBMI), asm-avx2 (on
// amd64 with AVX2) or the portable swar fallback. The process selects
// one at startup by CPU feature detection, overridable with the
// PQ_FORCE_BACKEND environment variable, and every Fast Scan reads it
// (ActiveBackend) once, at its start; no search names one. All backends
// return bit-identical results; the backends of one bound (asm-avx2 and
// swar share the paper's minimum-table bound) also return bit-identical
// statistics (DESIGN.md §12). Otherwise they differ only in wall-clock
// speed.
type Backend = dispatch.Backend

// ActiveBackend returns the backend every Fast Scan runs on: the
// fastest assembly backend the CPU supports, or swar, or whatever
// PQ_FORCE_BACKEND pinned.
func ActiveBackend() Backend { return dispatch.Active() }

// AvailableBackends lists the backends this machine can run, preferred
// first (always at least swar).
func AvailableBackends() []Backend { return dispatch.AvailableBackends() }

// CPUFeatures lists the SIMD features backend selection detected on
// this machine (e.g. sse2, avx, avx2, avx512f, avx512bw, avx512vbmi),
// for logs and benchmark records.
func CPUFeatures() []string { return dispatch.Features() }

// BackendInitNote reports what happened to a PQ_FORCE_BACKEND override
// that could not be honored ("" when selection was clean). Deployments
// should log it at startup so a silent fallback to the SWAR path cannot
// go unnoticed.
func BackendInitNote() string { return dispatch.InitNote() }

// ParseKernel resolves a kernel by its String name (the labels of the
// paper's figures: naive, libpq, fastpq).
func ParseKernel(name string) (Kernel, error) {
	for _, k := range Kernels() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("pqfastscan: unknown kernel %q (naive, libpq, fastpq)", name)
}

// BuildOptions configures index construction. Every index is PQ 8×8,
// the configuration the paper's scan serves (§3.1). See index.Options
// for the field semantics; zero values select the paper's defaults via
// DefaultBuildOptions.
type BuildOptions struct {
	// Partitions is the number of IVF cells (default 8, as in the
	// paper's 100M-vector experiments; its 1B-vector index uses 128).
	Partitions int
	// Keep is the fraction of each partition scanned with plain PQ Scan
	// to bound the distance quantization, in [0,1). Zero selects the
	// paper's 0.5 % default; the zero-keep ablation is reachable only
	// through the internal options, as in the seed.
	Keep float64
	// GroupComponents fixes the grouping depth c, at most 4; negative
	// (default) applies the paper's nmin(c) = 50·16^c auto-selection
	// rule.
	GroupComponents int
	// Seed makes construction deterministic.
	Seed uint64
	// DisableOptimizedAssignment turns off the §4.3 centroid index
	// reassignment (only useful for ablation studies).
	DisableOptimizedAssignment bool
}

// DefaultBuildOptions returns the paper's default configuration.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		Partitions:      8,
		Keep:            scan.DefaultKeep,
		GroupComponents: -1,
		Seed:            1,
	}
}

// Index is a built IVFADC index answering approximate nearest neighbor
// queries with any of the scan kernels.
//
// An Index is also a snapshot holder: Swap atomically replaces the index
// it serves under live traffic, so a long-lived *Index handle (the query
// service keeps one) can be re-pointed at a freshly loaded snapshot
// without pausing queries.
type Index struct {
	inner atomic.Pointer[index.Index]
	// dur, when set, is the durability state (durability.go): mutations
	// through this handle are write-ahead logged before acknowledgement.
	// It belongs to the handle, so it survives Swap.
	dur atomic.Pointer[durState]
}

// newIndex wraps an internal index in a façade handle.
func newIndex(in *index.Index) *Index {
	ix := &Index{}
	ix.inner.Store(in)
	return ix
}

// load returns the snapshot currently served by this handle. Callers use
// the returned *index.Index for the whole operation, so a concurrent
// Swap never splits one query across two snapshots.
func (ix *Index) load() *index.Index { return ix.inner.Load() }

// Build trains the index on learn and indexes every row of base. A
// Keep or GroupComponents no Fast Scan layout can be built under is an
// error naming the option.
func Build(learn, base Matrix, opt BuildOptions) (*Index, error) {
	if opt.Partitions == 0 {
		opt.Partitions = 8
	}
	if opt.Keep == 0 {
		opt.Keep = scan.DefaultKeep
	}
	inner, err := index.Build(learn, base, index.Options{
		Partitions:         opt.Partitions,
		Seed:               opt.Seed,
		KMeansIter:         20,
		OptimizeAssignment: !opt.DisableOptimizedAssignment,
		FastScan: scan.FastScanOptions{
			Keep:            opt.Keep,
			GroupComponents: opt.GroupComponents,
		},
	})
	if err != nil {
		return nil, err
	}
	if err := autoAttach(inner); err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// Stats describes a scan's dynamic behaviour: vectors scanned, lower
// bounds evaluated, candidates re-checked, pruning power.
type Stats = scan.Stats

// PartitionSizes returns the size of each IVF cell.
func (ix *Index) PartitionSizes() []int { return ix.load().PartitionSizes() }

// Dim returns the dimensionality of the indexed vectors.
func (ix *Index) Dim() int { return ix.load().Dim }

// Partitions returns the number of IVF cells — the upper bound for
// WithNProbe — without materializing the per-cell sizes.
func (ix *Index) Partitions() int { return ix.load().Partitions() }

// PQM returns the number of product quantizer segments (PQ m), part of
// the geometry a cluster router cross-checks across shards via /meta.
func (ix *Index) PQM() int { return ix.load().PQ.M }

// Save writes the trained index to path atomically, so the expensive
// construction pipeline runs once. Load it back with LoadIndex. Saving
// serializes the immutable epoch snapshot current at the call, so it is
// consistent under concurrent queries and mutations without blocking
// either.
func (ix *Index) Save(path string) error {
	return persist.SaveIndex(path, ix.load())
}

// Swap atomically replaces the index this handle serves with the one
// behind next and returns a handle over the replaced snapshot. Queries
// in flight at the instant of the swap keep the snapshot they started
// on and drain there; every later call sees the new one. The
// replacement must be query-compatible (same dimensionality and
// partition count) or Swap returns an error and serves the old snapshot
// unchanged. This is the hot-reload hook the serving layer
// (internal/server) builds on.
func (ix *Index) Swap(next *Index) (*Index, error) {
	if next == nil {
		return nil, fmt.Errorf("pqfastscan: Swap with nil index")
	}
	in := next.load()
	if err := ix.load().CompatibleWith(in); err != nil {
		return nil, err
	}
	return newIndex(ix.inner.Swap(in)), nil
}

// CompatibleWith reports whether next could replace this index via Swap:
// same dimensionality and partition count. The serving
// layer uses it to validate a staged snapshot at /swap/prepare time, so
// an incompatible file is rejected before a fleet-wide commit.
func (ix *Index) CompatibleWith(next *Index) error {
	if next == nil {
		return fmt.Errorf("pqfastscan: CompatibleWith nil index")
	}
	return ix.load().CompatibleWith(next.load())
}

// CoarseCentroids returns a copy of the coarse quantizer's centroids,
// row per IVF cell. A cluster router fetches them from a shard's /meta
// endpoint and reproduces the engine's cell ranking bit-for-bit
// (index.RankCells), which is what makes scatter-gather results
// identical to a single node's (DESIGN.md §13).
func (ix *Index) CoarseCentroids() [][]float32 {
	coarse := ix.load().Coarse
	out := make([][]float32, coarse.Rows())
	for i := range out {
		out[i] = append([]float32(nil), coarse.Row(i)...)
	}
	return out
}

// LoadIndex reads an index previously written with Save. The loaded
// index answers queries identically to the original.
func LoadIndex(path string) (*Index, error) {
	inner, err := persist.LoadIndex(path)
	if err != nil {
		return nil, err
	}
	if err := autoAttach(inner); err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// LoadIndexCells reads an index previously written with Save, keeping
// only the listed IVF cells; every other cell is left empty. Cell
// numbering, centroids, quantizers and the id allocator match a full
// load, so the subset answers queries over its cells bit-identically
// to the full index — the shard load path of cluster serving
// (cmd/pqserve -cells, DESIGN.md §13). A nil cells loads everything.
func LoadIndexCells(path string, cells []int) (*Index, error) {
	inner, err := persist.LoadIndexCells(path, cells)
	if err != nil {
		return nil, err
	}
	if err := autoAttach(inner); err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// RestrictCells returns a new Index serving only the listed IVF cells
// of the receiver's current snapshot (sharing their sealed data);
// every other cell is empty. The in-process counterpart of
// LoadIndexCells, used to stand up shard processes over synthetic
// builds without a save/load round trip.
func (ix *Index) RestrictCells(cells ...int) (*Index, error) {
	inner, err := ix.load().RestrictCells(cells)
	if err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// Internal exposes the underlying index to the benchmark harness.
// It is not part of the stable API.
func (ix *Index) Internal() *index.Index { return ix.load() }

// DatasetConfig configures the synthetic SIFT-like dataset generator
// standing in for ANN_SIFT1B (see DESIGN.md §7).
type DatasetConfig = dataset.Config

// Dataset generates deterministic SIFT-like vectors.
type Dataset = dataset.Generator

// NewSyntheticDataset returns a deterministic generator of 128-dimensional
// SIFT-like descriptor vectors.
func NewSyntheticDataset(cfg DatasetConfig) *Dataset {
	return dataset.NewGenerator(cfg)
}

// GroundTruth computes exact nearest neighbors by brute force, for recall
// evaluation.
func GroundTruth(base, queries Matrix, k int) ([][]int64, error) {
	return dataset.GroundTruth(base, queries, k)
}

// Recall computes recall@R of result id lists against ground truth.
func Recall(results [][]int64, groundTruth [][]int64, r int) float64 {
	return dataset.Recall(results, groundTruth, r)
}

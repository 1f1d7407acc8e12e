// Package index implements the IVFADC search system of the paper's §2.2:
// a coarse quantizer partitions the database into inverted lists (its
// Voronoi cells); a query is routed to its cell, per-query distance
// tables are computed from the query residual, and the partition is
// scanned with one of the kernels of internal/scan (Algorithm 1).
//
// Residual encoding follows Jégou et al. [14]: each database vector is
// encoded as the pqcode of x - c(x), where c(x) is its coarse centroid,
// and the product quantizer is trained on residuals.
package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pqfastscan/internal/kmeans"
	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
	"pqfastscan/internal/vec"
)

// Backend names Fast Scan's block-kernel implementation: the
// hand-written assembly kernels (asm-avx512vbmi's exact 8-bit bound on
// amd64 with AVX-512 VBMI, asm-avx2 on amd64 with AVX2) or the portable
// SWAR fallback. The process selects one at startup by feature
// detection (dispatch.Active), overridable with the PQ_FORCE_BACKEND
// environment variable; a Request names none. All backends return
// bit-identical results, and the backends of one bound bit-identical
// statistics (DESIGN.md §12).
type Backend = dispatch.Backend

const (
	BackendAuto       = dispatch.Auto
	BackendSWAR       = dispatch.SWAR
	BackendAVX2       = dispatch.AVX2
	BackendAVX512VBMI = dispatch.AVX512VBMI
)

// ActiveBackend returns the backend selected at startup (never
// BackendAuto).
func ActiveBackend() Backend { return dispatch.Active() }

// AvailableBackends lists the concrete backends this machine can run,
// preferred first.
func AvailableBackends() []Backend { return dispatch.AvailableBackends() }

// CPUFeatures lists the SIMD features backend selection detected.
func CPUFeatures() []string { return dispatch.Features() }

// BackendInitNote reports what happened to a PQ_FORCE_BACKEND override
// that could not be honored ("" when selection was clean) — deployments
// log it so a silent fallback to SWAR cannot go unnoticed.
func BackendInitNote() string { return dispatch.InitNote() }

// Kernel selects the scan a query is answered with. All three return
// bit-identical results (DESIGN.md §6); the paper's other kernels (avx,
// gather, quantonly, fastpq256) are laboratory implementations in
// internal/scan/model, reachable through pqbench, not through a query.
type Kernel int

const (
	// KernelFastScan is PQ Fast Scan (§4), the default.
	KernelFastScan Kernel = iota
	// KernelLibpq is the tuned exact PQ Scan (scan.ExactNative).
	KernelLibpq
	// KernelNaive is Algorithm 1 verbatim (scan.Naive), the oracle.
	KernelNaive
)

// String names the kernel with the labels used in the paper's figures.
func (k Kernel) String() string {
	switch k {
	case KernelNaive:
		return "naive"
	case KernelLibpq:
		return "libpq"
	case KernelFastScan:
		return "fastpq"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// Options configures index construction.
type Options struct {
	// Partitions is the number of coarse-quantizer cells (8 for the
	// paper's ANN_SIFT100M1 index, 128 for ANN_SIFT1B).
	Partitions int
	// Seed drives every stochastic step deterministically.
	Seed uint64
	// KMeansIter bounds coarse and sub-quantizer training iterations.
	KMeansIter int
	// OptimizeAssignment applies the §4.3 optimized centroid index
	// assignment after PQ training. Disable only for the Figure 11
	// ablation; PQ Scan results are unaffected either way.
	OptimizeAssignment bool
	// FastScan configures the PQ Fast Scan layout every partition epoch
	// is built with; Build refuses options its Check refuses.
	FastScan scan.FastScanOptions
}

// DefaultOptions returns the paper's default setup.
func DefaultOptions() Options {
	return Options{
		Partitions:         8,
		KMeansIter:         20,
		OptimizeAssignment: true,
		FastScan: scan.FastScanOptions{
			Keep:            scan.DefaultKeep,
			GroupComponents: -1,
		},
	}
}

// Index is a built IVFADC index. It is safe for concurrent use without
// any reader lock: queries atomically load an immutable Snapshot of
// per-partition epochs and scan it lock-free, while Add, Delete and
// compaction build replacement partitions copy-on-write and publish them
// with a single pointer swap. A mutation contends only with other
// mutations of the same partition, never with queries (snapshot.go).
type Index struct {
	Dim    int
	Coarse vec.Matrix // Partitions x Dim coarse centroids
	PQ     *quantizer.ProductQuantizer

	opt Options

	// cellTerms is the per-cell part of every residual distance table
	// (tables.go), Partitions × M × k* float32, immutable after newIndex.
	cellTerms []float32

	// snap is the serving state: the current immutable snapshot.
	snap atomic.Pointer[Snapshot]
	// epoch numbers every publish, monotonically.
	epoch atomic.Uint64
	// partMu[c] serializes builders of partition c's next epoch.
	partMu []sync.Mutex
	// nextID is the id allocator; Add reserves contiguous blocks.
	nextID atomic.Int64
	// locate routes each live id to its cell and row for Delete, by id
	// in arrays of consecutive ids where they are dense, hashed elsewhere
	// (locate.go). Nil until the first Delete builds it, maintained by
	// Add and rebuild under the cell's builder lock; guarded by locateMu
	// (a mutation-path lock — queries never touch it), always taken
	// after partMu[c].
	locateMu sync.Mutex
	locate   *locTable

	// pg, when non-nil, is the attached disk store (paging.go): epochs
	// are stubs over extents and probes pin payloads through pg's pool.
	// Written once under all partition builder locks (AttachStore);
	// pgInst distinguishes this index's extent names within a shared
	// store directory.
	pg     *Paging
	pgInst uint64
}

// Build trains the coarse quantizer and a PQ 8×8 product quantizer on
// learn and indexes every row of base. learn and base must share
// base.Dim. Fast Scan options no layout can be built under are refused
// here, before any training.
func Build(learn, base vec.Matrix, opt Options) (*Index, error) {
	if opt.Partitions <= 0 {
		return nil, fmt.Errorf("index: partition count %d must be positive", opt.Partitions)
	}
	if learn.Dim != base.Dim {
		return nil, fmt.Errorf("index: learn dim %d != base dim %d", learn.Dim, base.Dim)
	}
	if err := opt.FastScan.Check(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}

	// Step 1: coarse quantizer (the inverted index of §2.2).
	coarse, err := kmeans.Train(learn, kmeans.Config{
		K: opt.Partitions, MaxIter: opt.KMeansIter, Seed: opt.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("index: coarse quantizer: %w", err)
	}

	// Step 2: product quantizer on learn-set residuals.
	// coarse.Assign is every learn row's cell: k-means' final assignment
	// step ran against the centroids it returned.
	residuals := vec.NewMatrix(learn.Rows(), learn.Dim)
	residualsOf(learn.Data, coarse.Centroids, coarse.Assign, residuals.Data)
	pq, err := quantizer.Train(residuals, quantizer.PQ8x8, quantizer.TrainOptions{
		MaxIter: opt.KMeansIter, Seed: opt.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("index: product quantizer: %w", err)
	}
	if opt.OptimizeAssignment {
		if _, err := pq.OptimizeAssignment(opt.Seed + 2); err != nil {
			return nil, fmt.Errorf("index: optimized assignment: %w", err)
		}
	}

	ix := newIndex(base.Dim, coarse.Centroids, pq, opt)

	// Step 3: route and encode the base set, as Add does.
	cells, allCodes, err := ix.EncodeRoute(base)
	if err != nil {
		return nil, fmt.Errorf("index: base %w", err)
	}
	n := base.Rows()
	type bucket struct {
		codes []uint8
		ids   []int64
	}
	buckets := make([]bucket, opt.Partitions)
	for i := 0; i < n; i++ {
		c := cells[i]
		buckets[c].codes = append(buckets[c].codes, allCodes[i*pq.M:(i+1)*pq.M]...)
		buckets[c].ids = append(buckets[c].ids, int64(i))
	}
	parts := make([]*scan.Partition, opt.Partitions)
	for c := range buckets {
		parts[c] = scan.NewPartition(buckets[c].codes, buckets[c].ids)
	}
	ix.install(parts)
	ix.nextID.Store(int64(n))
	return ix, nil
}

// Options returns the options the index was built (or loaded) with.
func (ix *Index) Options() Options { return ix.opt }

// CompatibleWith reports whether next can transparently replace ix under
// live query traffic — the guard behind the façade's hot snapshot Swap.
// Compatible means queries valid against ix stay valid against next:
// same vector dimensionality and same partition count (an nprobe that
// was in range must stay in range); every index is PQ 8×8. Trained
// centroid values are deliberately not compared; swapping in a
// retrained index over fresh data is the point of the operation.
func (ix *Index) CompatibleWith(next *Index) error {
	if next == nil {
		return fmt.Errorf("index: nil replacement index")
	}
	if ix.Dim != next.Dim {
		return fmt.Errorf("index: replacement dim %d != serving dim %d", next.Dim, ix.Dim)
	}
	if ix.Partitions() != next.Partitions() {
		return fmt.Errorf("index: replacement has %d partitions, serving index %d (in-range nprobe requests would start failing)", next.Partitions(), ix.Partitions())
	}
	return nil
}

// Restore reassembles an Index from its persisted parts; used by the
// persist package. The caller guarantees consistency of the components:
// a PQ 8×8 quantizer, and Fast Scan options opt.FastScan.Check accepts,
// under which every partition is given its layout, and a nextID above
// every id the partitions hold. nextID seeds the id allocator for
// future Add calls.
func Restore(dim int, coarse vec.Matrix, pq *quantizer.ProductQuantizer, parts []*scan.Partition, opt Options, nextID int64) *Index {
	ix := newIndex(dim, coarse, pq, opt)
	ix.install(parts)
	ix.nextID.Store(nextID)
	return ix
}

// RestrictCells returns a new index over the same trained quantizers
// serving only the listed coarse cells: kept partitions share their
// sealed data with the receiver's current snapshot, every other cell
// becomes empty. The cell count, centroids and id allocator are
// unchanged, so cell numbering — and therefore routing, Tables and
// distances — stays global: a shard holding cells {2,5} of an 8-cell
// index answers exactly what a full index answers for those cells.
// This is the in-process counterpart of persist.LoadIndexCells, used
// by pqserve -cells over -synthetic builds and by cluster benchmarks.
func (ix *Index) RestrictCells(cells []int) (*Index, error) {
	s := ix.snap.Load()
	keep := make([]bool, len(s.Parts))
	for _, c := range cells {
		if c < 0 || c >= len(s.Parts) {
			return nil, fmt.Errorf("index: cell %d out of range [0,%d)", c, len(s.Parts))
		}
		keep[c] = true
	}
	out := newIndex(ix.Dim, ix.Coarse, ix.PQ, ix.opt)
	out.pg, out.pgInst = ix.pg, ix.pgInst
	// Kept cells share the receiver's sealed epochs wholesale — data,
	// Fast Scan layout and (for a paged index) the extent handle, so a
	// restricted shard of a disk-resident index pages through the same
	// pool without rewriting a byte. An emptied cell gets an empty base
	// and its empty layout.
	pes := make([]*PartEpoch, len(s.Parts))
	for i, pe := range s.Parts {
		if keep[i] {
			pes[i] = &PartEpoch{Part: pe.Part, Epoch: out.epoch.Add(1), fast: pe.fast, paged: pe.paged}
		} else {
			pes[i] = out.newEpoch(scan.NewPartition(nil, nil))
		}
	}
	out.partMu = make([]sync.Mutex, len(pes))
	out.snap.Store(&Snapshot{Parts: pes})
	out.nextID.Store(ix.nextID.Load())
	return out, nil
}

// PartitionSizes returns the vector count of every partition (Table 3).
func (ix *Index) PartitionSizes() []int {
	s := ix.snap.Load()
	sizes := make([]int, len(s.Parts))
	for i, pe := range s.Parts {
		sizes[i] = pe.Part.N
	}
	return sizes
}

// RoutePartition returns the coarse cell the query falls in (Step 1 of
// Algorithm 1).
func (ix *Index) RoutePartition(query []float32) int {
	c, _ := vec.ArgminL2(query, ix.Coarse.Data, ix.Dim)
	return c
}

// FastScanner returns the PQ Fast Scan layout of partition part in the
// current snapshot: on a RAM index the one its epoch was constructed
// with, so a scanner can never describe codes other than the ones the
// snapshot serves, and once the epoch is replaced its scanner becomes
// unreachable together with it.
func (ix *Index) FastScanner(part int) (*scan.FastScan, error) {
	s := ix.snap.Load()
	if part < 0 || part >= len(s.Parts) {
		return nil, fmt.Errorf("index: partition %d out of range", part)
	}
	pe := s.Parts[part]
	if pe.paged == nil {
		return pe.fast, nil
	}
	// Offline/tooling path on a paged index: materialize a RAM copy and
	// build a scanner over it, so the returned layout has no pin
	// lifetime. The serving scan path never comes through here — it
	// scans transient views inside scanPartition.
	p, err := ix.materializePart(pe)
	if err != nil {
		return nil, err
	}
	return scan.NewFastScan(p, ix.opt.FastScan)
}

// Result is re-exported for callers that only import index.
type Result = topk.Result

// scanPartition continues the query's running top-k in heap over one
// partition of an explicitly held snapshot — the lock-free scan core
// every query path funnels through. Threading the snapshot (instead of
// reloading it) keeps one logical query on one consistent view across
// multi-probe cells and batch workers. PQ Fast Scan scans straight into
// heap — on the block-kernel backend the process selected at startup
// (internal/simd/dispatch) — and so starts from whatever threshold the
// query's earlier cells reached; the exact scans return their
// partition's top-k, which is pushed into heap here. Either way heap
// ends up holding the k smallest (distance, id) pairs of everything
// scanned so far, and nothing in it aliases scan or pool memory. The
// cell's distance tables are written into qs, the scratch the caller
// took once for the whole query, and are dead when this returns.
func (ix *Index) scanPartition(s *Snapshot, req Request, part int, heap *topk.Heap, qs *queryScratch) (scan.Stats, error) {
	if part < 0 || part >= len(s.Parts) {
		return scan.Stats{}, fmt.Errorf("index: partition %d out of range", part)
	}
	t := ix.tables(qs, req.Query, part)

	// The epoch's view, held until the scan returns: on a paged epoch
	// that is the pin on its extent. The heap holds (id, distance)
	// values, never slices of the frame, so nothing aliases the pool
	// after the pin drops.
	p, fs, release, err := s.Parts[part].view()
	if err != nil {
		return scan.Stats{}, err
	}
	defer release()
	pushAll := func(r []Result, st scan.Stats) (scan.Stats, error) {
		for _, x := range r {
			heap.Push(x.ID, x.Distance)
		}
		return st, nil
	}

	switch req.Kernel {
	case KernelFastScan:
		return fs.ScanNativeInto(t, heap, qs.scan, dispatch.Auto), nil
	case KernelLibpq:
		return pushAll(scan.ExactNative(p, t, req.K, qs.scan))
	case KernelNaive:
		return pushAll(scan.Naive(p, t, req.K))
	default:
		return scan.Stats{}, fmt.Errorf("index: unknown kernel %v", req.Kernel)
	}
}

// MemoryBytes is what an index holds for its rows, by what holds it,
// taken from its own arrays, and Figure 20's comparison.
type MemoryBytes struct {
	Rows      int // rows held, dead ones included
	Codes     int // row-major code bytes: the keep regions and the tails
	IDs       int // id bytes: the base's offsets and spilled ids, the tail's ids
	Blocks    int // packed block bytes: every other row's code
	Directory int // group directory bytes

	// Figure 20: the bytes a Fast Scan reads (the packed blocks and the
	// plain-scanned rows) against every row row-major.
	Packed, RowMajor int
}

// Resident returns the bytes held for the rows: codes, ids, blocks and
// the group directory, each stored once.
func (m MemoryBytes) Resident() int { return m.Codes + m.IDs + m.Blocks + m.Directory }

// GroupedMemoryBytes returns, summed over all partitions, the bytes the
// index holds for its rows and the packed layout's footprint against
// the row-major baseline.
func (ix *Index) GroupedMemoryBytes() (MemoryBytes, error) {
	var m MemoryBytes
	for _, pe := range ix.snap.Load().Parts {
		p, fs, release, err := pe.view()
		if err != nil {
			return MemoryBytes{}, err
		}
		g := fs.Grouped()
		codes, _, blocks := p.Stored()
		m.Rows += p.N
		m.Codes += len(codes) + p.Tail()*layout.M
		m.IDs += p.IDBytes()
		m.Blocks += len(blocks)
		m.Directory += g.DirectoryBytes()
		plain := fs.PlainScanned() * layout.M
		m.Packed += g.PackedBytes() + plain
		m.RowMajor += g.RowMajorBytes() + plain
		release()
	}
	return m, nil
}

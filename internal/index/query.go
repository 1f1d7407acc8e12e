package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"pqfastscan/internal/par"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/vec"
)

// Request describes one k-NN query: what to search for, how many
// neighbors, which kernel, and how many inverted-index cells to probe.
// The zero value of Kernel is KernelFastScan. NProbe 0 and 1 both mean
// the paper's single-cell routing, unless NProbe is 0 and Recall is set:
// then the query probes the closest cells until they hold fraction
// Recall, in (0, 1], of the live rows of the snapshot it scans
// (RecallPrefix). That is a coverage target, not a measured recall; an
// explicit NProbe or Cells wins over it.
// Cells, when non-empty, bypasses coarse routing entirely and scans
// exactly the listed cells in order — the shard-side half of
// scatter-gather serving (internal/cluster): the router runs step 1 of
// Algorithm 1 once, fleet-wide, and tells each shard which of its cells
// to scan. Cells is mutually exclusive with NProbe: with Cells set,
// NProbe must be 0. CheckRequest holds every rule.
type Request struct {
	Query  []float32
	K      int
	Kernel Kernel
	NProbe int
	Cells  []int
	Recall float64
}

// Response carries a query's answer: the neighbors, the merged scan
// statistics, and the partitions probed in visit order.
type Response struct {
	Results    []Result
	Stats      scan.Stats
	Partitions []int
}

// ErrBadRequest marks a query or added vector refused for what it says,
// not for the state of the index: every CheckRequest and CheckVector
// error wraps it, whoever ran the check — Query, AddBatch, the HTTP
// decoders (whose errors the serving binaries answer with 400) or the
// cluster router. Test with errors.Is.
var ErrBadRequest = errors.New("index: bad request")

func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// CheckVector rejects a query or added vector no distance can be
// computed for: one whose length is not dim, or whose squared norm is
// not a finite float32, because a component is NaN, infinite, or so
// large its square overflows. Past this check such a vector turns every
// table entry into +Inf or NaN (the factored table subtracts: Inf − Inf),
// and a NaN component routes to cell 0 and encodes as code 0, because
// every comparison against NaN is false.
func CheckVector(v []float32, dim int) error {
	if len(v) != dim {
		return badRequest("vector dim %d != index dim %d", len(v), dim)
	}
	if n := float64(vec.SquaredNorm(v)); math.IsInf(n, 0) || math.IsNaN(n) {
		return badRequest("vector has a NaN or infinite component, or its squared norm overflows float32")
	}
	return nil
}

// CheckRequest holds every rule a query must satisfy against an index of
// the given dimension and partition count: k positive, a query
// CheckVector accepts, nprobe in [0, partitions] (0 leaves routing
// open), a recall target in [0, 1] (0 sets none), and explicit cells in
// range, distinct and not combined with any nprobe. It is the one copy
// of these rules: Query runs it on the snapshot it scans, and the HTTP
// decoders (internal/server) and the cluster router run it before doing
// any work, so a bad request costs its sender a 400 and nobody else
// anything. Errors wrap ErrBadRequest; a valid request costs no
// allocation.
func CheckRequest(req Request, dim, partitions int) error {
	if req.K <= 0 {
		return badRequest("k must be positive, got %d", req.K)
	}
	if err := CheckVector(req.Query, dim); err != nil {
		return err
	}
	if req.NProbe < 0 || req.NProbe > partitions {
		return badRequest("nprobe %d out of range [1,%d]", req.NProbe, partitions)
	}
	// The affirmative range check also rejects NaN.
	if !(req.Recall >= 0 && req.Recall <= 1) {
		return badRequest("target recall %g out of range (0, 1]", req.Recall)
	}
	if len(req.Cells) > 0 {
		if req.NProbe != 0 {
			return badRequest("explicit cells and nprobe %d are mutually exclusive", req.NProbe)
		}
		for i, c := range req.Cells {
			if c < 0 || c >= partitions {
				return badRequest("cell %d out of range [0,%d)", c, partitions)
			}
			// A valid list is no longer than the partition count, so the
			// quadratic scan is a handful of compares and no allocation.
			if slices.Contains(req.Cells[:i], c) {
				return badRequest("cell %d listed twice", c)
			}
		}
	}
	return nil
}

// Query answers one request, honoring ctx cancellation and deadlines:
// the context is checked before every partition scan, so a multi-probe
// query under a tight deadline stops between cells rather than running
// to completion.
//
// The whole query runs against one atomically loaded snapshot and takes
// no locks: concurrent mutations publish new snapshots and never touch
// the one in hand, so even a multi-probe query sees every partition at
// one consistent point in time.
func (ix *Index) Query(ctx context.Context, req Request) (*Response, error) {
	return ix.querySnap(ctx, ix.snap.Load(), req)
}

// querySnap is Query pinned to an explicit snapshot; QueryBatch loads
// the snapshot once and shares it across all worker goroutines so one
// batch answers from one consistent view.
func (ix *Index) querySnap(ctx context.Context, s *Snapshot, req Request) (*Response, error) {
	if err := CheckRequest(req, ix.Dim, len(s.Parts)); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Explicit cell lists skip routing entirely: the caller (a cluster
	// router, or a test pinning a scan) already decided which cells
	// matter. Scanned in the given order; results are identical to a
	// multi-probe scan visiting the same set because the bounded heap's
	// retained set is order-independent (only how early the carried
	// threshold tightens, and so Stats, depends on the order).
	if len(req.Cells) > 0 {
		return ix.queryCells(ctx, s, req, req.Cells)
	}

	nprobe := req.NProbe
	if nprobe == 0 && req.Recall == 0 {
		nprobe = 1
	}
	if nprobe == 1 {
		return ix.queryCells(ctx, s, req, []int{ix.RoutePartition(req.Query)})
	}

	// Multi-probe: visit the nprobe cells closest to the query and merge
	// their neighbors. RankCells breaks coarse-distance ties by cell id,
	// so the probed set is reproducible — and matches what a cluster
	// router ranking the same centroids independently would select. A
	// recall target cuts its prefix from this one ranking, weighed by the
	// live rows of s, the snapshot the prefix is then scanned in.
	ranked := RankCells(req.Query, ix.Coarse)
	if nprobe == 0 {
		live := make([]int, len(s.Parts))
		for i, pe := range s.Parts {
			live[i] = pe.Part.Live()
		}
		nprobe = RecallPrefix(ranked, live, req.Recall)
	}
	return ix.queryCells(ctx, s, req, ranked[:nprobe])
}

// queryCells scans the given cells sequentially into the query's one
// running top-k, through the query's one scratch — the one probe loop
// of every query: single-cell routing, multi-probe and explicit cells.
// The scratch keeps the query term between cells, so every table after
// the first is one fused pass (tables.go). Every cell after the first
// starts from the threshold its predecessors reached (scanPartition),
// which is where multi-probe pruning power comes from; the answer is
// the k smallest (distance, id) pairs of the union whatever the cell
// order.
func (ix *Index) queryCells(ctx context.Context, s *Snapshot, req Request, cellIDs []int) (*Response, error) {
	qs := ix.getScratch()
	defer scratchPool.Put(qs)
	heap := qs.heap
	heap.Reset(req.K)
	resp := &Response{Partitions: make([]int, 0, len(cellIDs))}
	for _, c := range cellIDs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := ix.scanPartition(s, req, c, heap, qs)
		if err != nil {
			return nil, err
		}
		resp.Stats.Merge(st)
		resp.Partitions = append(resp.Partitions, c)
	}
	resp.Results = heap.Results()
	return resp, nil
}

// QueryBatch answers req for every row of queries concurrently, one
// goroutine per core — the deployment model the paper assumes ("PQ Scan
// parallelizes naturally over multiple queries by running each query on
// a different core", §3.1). Responses are returned in query order, each
// the Query of its row — a recall target picks every row's own prefix.
// The snapshot is loaded once and shared by every worker, so the whole batch
// answers from one consistent view regardless of concurrent mutations;
// workers probing a cold epoch share its one layout build
// (PartEpoch.view). Cancelling ctx makes in-flight workers stop between
// partition scans and the batch return the context's error.
func (ix *Index) QueryBatch(ctx context.Context, queries vec.Matrix, req Request) ([]*Response, error) {
	s := ix.snap.Load()
	if queries.Dim != ix.Dim {
		return nil, fmt.Errorf("index: query dim %d != index dim %d", queries.Dim, ix.Dim)
	}
	n := queries.Rows()
	out := make([]*Response, n)
	errs := make([]error, n)
	par.For(n, func(i int) {
		r := req
		r.Query = queries.Row(i)
		out[i], errs[i] = ix.querySnap(ctx, s, r)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

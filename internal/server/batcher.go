// Natural batching (DESIGN.md §10). SearchBatch shares no work between
// its rows, so coalescing /search requests buys nothing by itself: what
// matters is that no more queries scan at once than there are cores to
// scan them. The batcher therefore has no clock. A request that finds
// fewer than GOMAXPROCS batches executing runs its own query at once, on
// its own handler goroutine; one that finds every core busy queues, and
// the next leader to finish hands its slot — and everything that queued
// meanwhile, as one batch — to the first of the queued handlers. Batches
// widen exactly as far as load outruns the cores and are one query wide
// otherwise. It is the rule of wal.syncToLocked: whoever is blocked
// first does the work for everyone who blocked behind it.
//
// Requests whose search parameters differ cannot share a SearchBatch
// call, so a batch is partitioned by batchKey and one call issued per
// group — the common case of a homogeneous client population stays one
// call per batch.
package server

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pqfastscan"
)

// errClosed is returned to requests that race server shutdown.
var errClosed = errors.New("server: shutting down")

// errExpiredInBatch is returned to a request whose deadline (or
// client connection) expired while it was queued behind a busy
// executor: it is dropped from its batch before any scan work is spent
// on it, and the handler answers 504. The rest of its batch runs
// unaffected.
var errExpiredInBatch = errors.New("server: deadline expired while queued for batching")

// batchKey identifies searches that may share one SearchBatch call.
// Fields are the normalized search parameters (defaults applied), so two
// requests spelling the default differently still coalesce. cells is
// the canonical explicit-cell list ("" when the request routes through
// the coarse quantizer): router sub-requests for the same cell set —
// the common case under scatter-gather fanout, where a hot query
// population probes the same top cells — coalesce exactly like
// same-nprobe client requests do. Planned requests carry the planner's
// concrete choices (nprobe, parallel) in the key, so planned and
// explicit requests resolving to the same configuration coalesce too.
type batchKey struct {
	k        int
	nprobe   int
	kernel   pqfastscan.Kernel
	parallel bool
	cells    string
}

// cellsKey canonicalizes an explicit cell list for batch grouping. The
// scan visits cells in the given order, so order is part of the key —
// two requests probing the same set in a different order return the
// same results but are not coalesced (routers emit a deterministic
// order, so this does not cost coalescing in practice).
func cellsKey(cells []int) string {
	if len(cells) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// searchJob is one /search request in flight through the batcher.
type searchJob struct {
	key batchKey
	// ctx is the request's deadline-carrying context. The batch itself
	// never runs under it (shared work must not be cancelled by one
	// client) — it is only consulted when the batch is formed, to drop
	// jobs whose budget expired while queued.
	ctx   context.Context
	cells []int
	query []float32
	resp  *pqfastscan.SearchResult
	err   error

	// queued and wake are set only on a job that found the executor busy.
	// wake delivers the one event such a job waits for: nil once another
	// leader has answered it, or the batch it is to lead (itself first).
	queued time.Time
	wake   chan []*searchJob
}

// answer completes the job and releases its handler if it is waiting.
// On the leader's own job the send lands in the buffer and is never read.
func (j *searchJob) answer(resp *pqfastscan.SearchResult, err error) {
	j.resp, j.err = resp, err
	if j.wake != nil {
		j.wake <- nil
	}
}

type batcher struct {
	idx     *pqfastscan.Index
	max     int
	timeout time.Duration // per-batch engine deadline
	metrics *metrics
	// limit is how many batches may scan at once: one per core, because a
	// scan is CPU-bound and a query more than that only takes time from
	// the ones already running. Derived, not configured.
	limit int

	// While running < limit pending is empty (an arrival that finds a free
	// slot leads at once), and while pending is non-empty running > 0 (a
	// finishing leader hands its slot on rather than releasing it) — so
	// no queued job is ever left without a leader to reach it.
	mu      sync.Mutex
	pending []*searchJob
	running int
	closed  bool
	leaders sync.WaitGroup // one count per executor slot in use

	// onScan is a test hook, nil outside tests: it runs on the leader
	// before each SearchBatch, so a test can hold the executor busy.
	onScan func()
}

func newBatcher(idx *pqfastscan.Index, maxBatch int, timeout time.Duration, m *metrics) *batcher {
	return &batcher{idx: idx, max: maxBatch, timeout: timeout, metrics: m, limit: runtime.GOMAXPROCS(0)}
}

// submit answers one job and returns once j.resp or j.err is set: at
// once and on this goroutine when a core is free, otherwise after
// queueing — answered by another leader's batch, or by leading the next
// batch itself. Every job accepted here completes, including across
// close.
func (b *batcher) submit(j *searchJob) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errClosed
	}
	if b.running < b.limit {
		b.running++
		b.leaders.Add(1)
		b.mu.Unlock()
		b.lead([]*searchJob{j})
		return nil
	}
	j.queued = time.Now()
	j.wake = make(chan []*searchJob, 1)
	b.pending = append(b.pending, j)
	b.mu.Unlock()
	if batch := <-j.wake; batch != nil {
		b.lead(batch)
	}
	return nil
}

// lead runs one batch on the calling goroutine, then passes its executor
// slot to whatever queued during the scan (at most max jobs, led by the
// first of them) or, with nothing queued, gives the slot up.
func (b *batcher) lead(batch []*searchJob) {
	b.execute(batch)
	b.mu.Lock()
	if n := min(len(b.pending), b.max); n > 0 {
		// Capacity-clipped, so the new leader filtering its batch in place
		// never reaches the jobs that go on queueing behind it.
		next := b.pending[:n:n]
		b.pending = b.pending[n:]
		b.mu.Unlock()
		next[0].wake <- next
		return
	}
	b.running--
	b.mu.Unlock()
	b.leaders.Done()
}

// close refuses new jobs and waits for every accepted one to be answered.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.leaders.Wait()
}

// execute forms the batch — jobs whose own deadline expired while they
// queued are dropped here: their budget is spent, scanning for them
// would be pure waste, and the rest runs as if they were never
// submitted — and issues one SearchBatch per batchKey.
func (b *batcher) execute(batch []*searchJob) {
	live := batch[:0]
	var formed time.Time
	for _, j := range batch {
		var wait time.Duration
		if j.wake != nil {
			if formed.IsZero() {
				formed = time.Now()
			}
			wait = formed.Sub(j.queued)
		}
		b.metrics.queueWait.Observe(wait)
		if j.ctx.Err() != nil {
			j.answer(nil, errExpiredInBatch)
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	if !slices.ContainsFunc(live[1:], func(j *searchJob) bool { return j.key != live[0].key }) {
		b.search(live)
		return
	}
	groups := make(map[batchKey][]*searchJob)
	for _, j := range live {
		groups[j.key] = append(groups[j.key], j)
	}
	for _, group := range groups {
		b.search(group)
	}
}

// search runs one SearchBatch call for jobs sharing a batchKey and fans
// the results back out. The call runs under a server-owned deadline, not
// any one client's context: the work is shared across requests, so a
// single disconnecting client must not cancel its neighbors' queries.
func (b *batcher) search(group []*searchJob) {
	key := group[0].key
	ctx := context.Background()
	if b.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.timeout)
		defer cancel()
	}
	// A lone query is scanned where the request decoded it.
	queries := pqfastscan.Matrix{Data: group[0].query, Dim: len(group[0].query)}
	if len(group) > 1 {
		queries = pqfastscan.NewMatrix(len(group), queries.Dim)
		for i, j := range group {
			copy(queries.Row(i), j.query)
		}
	}
	b.metrics.observeBatch(len(group))
	opts := []pqfastscan.SearchOption{pqfastscan.WithKernel(key.kernel)}
	if key.parallel {
		opts = append(opts, pqfastscan.WithParallel())
	}
	if len(group[0].cells) > 0 {
		// All jobs in a group share the same canonical cell list (it is
		// part of the batch key), so the first job's slice speaks for all.
		opts = append(opts, pqfastscan.WithCells(group[0].cells...))
	} else {
		opts = append(opts, pqfastscan.WithNProbe(key.nprobe))
	}
	if b.onScan != nil {
		b.onScan()
	}
	resps, err := b.idx.SearchBatch(ctx, queries, key.k, opts...)
	for i, j := range group {
		if err != nil {
			j.answer(nil, err)
		} else {
			j.answer(resps[i], nil)
		}
	}
}

// Scatter-gather execution: per-shard sub-requests with failover and
// hedging, and the deterministic cross-shard merge.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pqfastscan"
	"pqfastscan/internal/index"
	"pqfastscan/internal/server"
	"pqfastscan/internal/topk"
)

// counter is a tiny named atomic for per-shard stats.
type counter struct{ v atomic.Int64 }

func (c *counter) Add(n int64) { c.v.Add(n) }
func (c *counter) Load() int64 { return c.v.Load() }

// atomicMeta publishes the fleet geometry: readers (every query) load
// it lock-free; a fleet swap republishes it wholesale.
type atomicMeta struct{ p atomic.Pointer[fleetMeta] }

func (m *atomicMeta) load() *fleetMeta   { return m.p.Load() }
func (m *atomicMeta) store(f *fleetMeta) { m.p.Store(f) }

// SearchOptions parameterizes one routed query. Zero values select the
// single-node defaults: K 10, NProbe 1, the engine's default kernel.
// Search holds them to a node's rules (index.CheckRequest); k is not
// capped here — Config.MaxK caps /search bodies.
type SearchOptions struct {
	K      int
	NProbe int
	Cells  []int // explicit probe set; mutually exclusive with NProbe
	Kernel string
	// Recall, in (0,1], fills an open NProbe: probe the closest cells
	// until they hold fraction Recall of the live rows, weighed by the
	// fleet's cell sizes — index.RecallPrefix, the rule a single node's
	// Query applies (DESIGN.md §16). It is a coverage target, not a
	// measured recall. An explicit NProbe or Cells wins, exactly as
	// WithNProbe beats WithTargetRecall on a single node.
	Recall float64
	// AllowPartial degrades instead of failing when shards are down:
	// the merge runs over whichever shards answered (at least one must)
	// and the response's Coverage field reports the shortfall.
	AllowPartial bool
}

// Search answers one query over the whole fleet: rank cells, fan the
// probe set out to the owning shards, merge. The response has exactly
// the shape and content a single node holding all cells would return.
func (r *Router) Search(ctx context.Context, query []float32, opt SearchOptions) (*server.SearchResponse, error) {
	meta := r.meta.load()
	if opt.K == 0 {
		opt.K = 10
	}
	// A request a node would refuse is refused here, before any fan-out:
	// sent on, every shard would answer 400, which the retry budget and
	// the breakers count against the endpoints.
	req := index.Request{Query: query, K: opt.K, NProbe: opt.NProbe, Cells: opt.Cells, Recall: opt.Recall}
	if opt.Kernel != "" {
		k, err := pqfastscan.ParseKernel(opt.Kernel)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", index.ErrBadRequest, err)
		}
		req.Kernel = k
	}
	if err := index.CheckRequest(req, meta.dim, meta.partitions); err != nil {
		return nil, err
	}
	var ranked []int // RankCells order over meta.coarse, once computed
	// The recall target picks nprobe only when routing is open — explicit
	// nprobe or cells win, matching single-node semantics. The prefix is
	// cut from the very ranking probeSet slices, so the query is
	// indistinguishable from one carrying that nprobe explicitly; a fleet
	// that reports no cell sizes gets the single-probe default.
	if opt.Recall != 0 && opt.NProbe == 0 && len(opt.Cells) == 0 {
		ranked = index.RankCells(query, meta.coarse)
		opt.NProbe = index.RecallPrefix(ranked, meta.cellSizes, opt.Recall)
	}
	if opt.NProbe == 0 {
		opt.NProbe = 1
	}

	probe, byShard := r.probeSet(meta, query, ranked, opt.NProbe, opt.Cells)
	ids := shardIDs(byShard)

	// Fan out. Every shard sub-request asks for the full k: the global
	// top k can come entirely from one shard's cells, so nothing less is
	// sound.
	lists := make([][]topk.Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, si := range ids {
		wg.Add(1)
		go func(i, si int) {
			defer wg.Done()
			body, err := json.Marshal(server.SearchRequest{
				Query:  query,
				K:      opt.K,
				Cells:  byShard[si],
				Kernel: opt.Kernel,
			})
			if err != nil {
				errs[i] = fmt.Errorf("shard %d (cells %v): %w", si, byShard[si], err)
				return
			}
			resp, err := r.shardSearch(ctx, r.shards[si], body)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d (cells %v): %w", si, byShard[si], err)
				return
			}
			list := make([]topk.Result, len(resp.Results))
			for j, n := range resp.Results {
				list[j] = topk.Result{ID: n.ID, Distance: n.Distance}
			}
			lists[i] = list
		}(i, si)
	}
	wg.Wait()
	allowPartial := opt.AllowPartial || r.cfg.AllowPartial
	answered := 0 // probe cells whose shard replied
	okShards := 0
	for i, si := range ids {
		if errs[i] == nil {
			answered += len(byShard[si])
			okShards++
		}
	}
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !allowPartial || okShards == 0 {
			return nil, err
		}
		r.cfg.Logf("cluster: partial result: %v", err)
	}

	merged := topk.MergeResults(opt.K, lists...)
	resp := &server.SearchResponse{
		Results:    make([]server.SearchNeighbor, len(merged)),
		Partitions: probe,
	}
	if answered < len(probe) {
		r.metrics.partials.Add(1)
		resp.Coverage = &server.Coverage{CellsAnswered: answered, CellsTotal: len(probe)}
	}
	for i, m := range merged {
		resp.Results[i] = server.SearchNeighbor{ID: m.ID, Distance: m.Distance}
	}
	return resp, nil
}

// errAllTripped fails an attempt fast when every candidate endpoint is
// refused by its circuit breaker: no network I/O is spent on a shard
// known to be dark. The retry budget's backoff rounds keep re-asking,
// so the first breaker to reach half-open admits a probe and recovery
// happens inside the same query when the cooldown allows it.
var errAllTripped = errors.New("cluster: circuit open: every endpoint tripped or quarantined")

// shardSearch runs one shard sub-request under a bounded retry budget.
// Candidates are the shard's endpoints minus quarantined ones (unless
// that empties the list) and minus those whose circuit breaker refuses.
// The primary is asked first; an error moves on to the next replica
// immediately (failover), and a primary that is merely slow gets a
// replica launched beside it after HedgeDelay (hedge) — first success
// wins, the loser's response is discarded. Once every endpoint has been
// tried, remaining budget re-cycles the list with exponential backoff
// and full jitter between rounds. Everything shares one ShardTimeout
// deadline; individual attempts additionally run under an adaptive
// timeout derived from the endpoint's latency EWMA, and nothing is
// launched after the context is done. body is the sub-request already
// marshalled: every failover, retry and hedge posts the same bytes.
func (r *Router) shardSearch(ctx context.Context, sh *shard, body []byte) (*server.SearchResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel()
	start := time.Now()

	eps := sh.spec.Endpoints
	maxAttempts := r.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = len(eps) + 2
	}

	type outcome struct {
		resp *server.SearchResponse
		err  error
	}
	results := make(chan outcome, maxAttempts)
	wake := make(chan struct{}, 1)
	launched, inflight := 0, 0
	retryPending := false
	// pick rotates from the failover cursor preferring live endpoints:
	// pass 0 skips quarantined ones, pass 1 admits them anyway (better
	// a long-shot attempt than none), and a breaker that refuses is
	// skipped in both passes. No admissible endpoint means fail fast.
	pick := func() (string, *endpointState, bool) {
		now := time.Now()
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < len(eps); i++ {
				ep := eps[(launched+i)%len(eps)]
				st := r.endpoints[ep]
				if st == nil {
					return ep, nil, true
				}
				if pass == 0 && st.quarantined.Load() {
					continue
				}
				if r.cfg.BreakerThreshold < 0 || st.breaker.Allow(now) {
					return ep, st, true
				}
			}
		}
		return "", nil, false
	}
	launch := func() {
		ep, st, ok := pick()
		launched++
		inflight++
		if !ok {
			r.metrics.breakerFastFails.Add(1)
			results <- outcome{nil, errAllTripped}
			return
		}
		go func() {
			attempt := r.cfg.ShardTimeout
			if st != nil {
				attempt = st.attemptTimeout(r.cfg.ShardTimeout)
			}
			actx, acancel := context.WithTimeout(ctx, attempt)
			t0 := time.Now()
			var out server.SearchResponse
			err := r.post(actx, ep+"/search", body, &out)
			acancel()
			if st != nil {
				if err == nil {
					st.latency.Observe(time.Since(t0))
				}
				if r.cfg.BreakerThreshold >= 0 {
					switch {
					case err == nil:
						st.breaker.Success()
					case ctx.Err() != nil:
						// The sub-request as a whole was cancelled or
						// timed out around this attempt — a hedge
						// sibling won, or the caller's deadline fired.
						// That verdict is about the race, not the
						// endpoint: release any probe slot, count no
						// failure.
						st.breaker.Cancel()
					default:
						st.breaker.Failure(time.Now())
					}
				}
			}
			if r.cfg.settled != nil {
				r.cfg.settled(ep)
			}
			results <- outcome{&out, err}
		}()
	}
	launch()

	var hedge <-chan time.Time
	if len(eps) > 1 && r.cfg.HedgeDelay > 0 && maxAttempts > 1 {
		t := time.NewTimer(r.cfg.HedgeDelay)
		defer t.Stop()
		hedge = t.C
	}

	var firstErr error
	for {
		select {
		case o := <-results:
			inflight--
			if o.err == nil {
				sh.requests.Observe(time.Since(start))
				return o.resp, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			switch {
			case retryPending || launched >= maxAttempts:
				if inflight == 0 && !retryPending {
					return nil, firstErr
				}
			case launched < len(eps):
				// First pass: a fresh replica costs nothing to try now.
				sh.failovers.Add(1)
				r.metrics.failovers.Add(1)
				launch()
			default:
				// Repeat round: back off with full jitter so a fleet of
				// routers hammering a struggling shard spreads out.
				retryPending = true
				d := r.retryDelay(launched / len(eps))
				go func() {
					if r.cfg.sleep(ctx, d) {
						wake <- struct{}{}
					}
				}()
			}
		case <-wake:
			retryPending = false
			sh.retries.Add(1)
			r.metrics.retries.Add(1)
			launch()
		case <-hedge:
			hedge = nil
			if launched < len(eps) && launched < maxAttempts {
				sh.hedges.Add(1)
				r.metrics.hedges.Add(1)
				launch()
			}
		case <-ctx.Done():
			if firstErr != nil {
				return nil, fmt.Errorf("%w (after %v)", firstErr, ctx.Err())
			}
			return nil, ctx.Err()
		}
	}
}

// retryDelay computes the backoff before repeat round n (n >= 1): a
// uniform draw from [0, min(RetryBaseDelay<<(n-1), RetryMaxDelay)] —
// "full jitter", which spreads synchronized retriers across the whole
// window instead of clustering them at its edge.
func (r *Router) retryDelay(round int) time.Duration {
	if round < 1 {
		round = 1
	}
	d := r.cfg.RetryBaseDelay
	for i := 1; i < round && d < r.cfg.RetryMaxDelay; i++ {
		d <<= 1
	}
	if d > r.cfg.RetryMaxDelay {
		d = r.cfg.RetryMaxDelay
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(r.cfg.jitter(int64(d) + 1))
}

// httpStatusError lets callers distinguish a shard that answered with
// an HTTP error (carrying its status and body) from a transport error.
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, e.body)
}

// postJSON marshals body and posts it (see post).
func (r *Router) postJSON(ctx context.Context, url string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return r.post(ctx, url, raw, out)
}

// post posts a marshalled JSON body to url and decodes a 200 reply into
// out. When ctx carries a deadline, the remaining budget is forwarded as
// a relative X-Pq-Deadline-Ms header (relative, so clock skew between
// router and shard cannot corrupt it) and already-expired work is
// rejected here without touching the network.
func (r *Router) post(ctx context.Context, url string, raw []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms <= 0 {
			return context.DeadlineExceeded
		}
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	return r.doJSON(req, out)
}

// getJSON fetches url and decodes a 200 reply into out.
func (r *Router) getJSON(url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return r.doJSON(req, out)
}

func (r *Router) doJSON(req *http.Request, out any) error {
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &httpStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan"
	"pqfastscan/internal/server"
)

// flakyShard wraps a real shard server and fails the first n /search
// requests with 503, counting every attempt that reaches it.
func flakyShard(t *testing.T, full *pqfastscan.Index, cells []int, failFirst int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	restricted, err := full.RestrictCells(cells...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Index: restricted, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search" {
			if attempts.Add(1) <= failFirst {
				http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
				return
			}
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { hs.Close(); s.Close() })
	return hs, &attempts
}

// recordingSleeper captures every backoff wait without actually waiting.
type recordingSleeper struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (rs *recordingSleeper) sleep(ctx context.Context, d time.Duration) bool {
	rs.mu.Lock()
	rs.delays = append(rs.delays, d)
	rs.mu.Unlock()
	return ctx.Err() == nil
}

func (rs *recordingSleeper) recorded() []time.Duration {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]time.Duration(nil), rs.delays...)
}

// TestRetryBudgetBackoffDeterministic drives the full retry ladder with
// an injected sleeper and a pinned jitter draw: a single-endpoint shard
// failing its first seven attempts is retried with exponentially
// growing waits up to the cap and then answers correctly on the eighth.
func TestRetryBudgetBackoffDeterministic(t *testing.T) {
	full, queries := fullIndex(t)
	flaky, attempts := flakyShard(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7}, 7)

	rs := &recordingSleeper{}
	router := newRouter(t, 8, [][]string{{flaky.URL}}, func(c *Config) {
		c.HedgeDelay = -1
		c.MaxAttempts = 9
		// Seven straight failures would open a default breaker (5) and
		// fail the later rounds fast, before the cap is reached.
		c.BreakerThreshold = -1
		c.sleep = rs.sleep
		c.jitter = func(n int64) int64 { return n - 1 } // always the window's top
	})

	q := queries.Row(1)
	resp, err := router.Search(context.Background(), q, SearchOptions{K: 10, NProbe: 8})
	if err != nil {
		t.Fatalf("search through flaky shard: %v", err)
	}
	want, err := full.Search(context.Background(), q, 10, pqfastscan.WithNProbe(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Results {
		if resp.Results[i].ID != w.ID || resp.Results[i].Distance != w.Distance {
			t.Fatalf("retried result rank %d: %+v, want %+v", i, resp.Results[i], w)
		}
	}
	if got := attempts.Load(); got != 8 {
		t.Fatalf("shard saw %d attempts, want 8 (7 failures + success)", got)
	}
	// Round r's window tops out at min(5ms<<(r-1), 250ms): 5, 10, 20,
	// 40, 80, 160 ms, then the 250 ms cap.
	var wantDelays []time.Duration
	for _, ms := range []time.Duration{5, 10, 20, 40, 80, 160, 250} {
		wantDelays = append(wantDelays, ms*time.Millisecond)
	}
	got := rs.recorded()
	if len(got) != len(wantDelays) {
		t.Fatalf("backoff sleeps %v, want %v", got, wantDelays)
	}
	for i := range wantDelays {
		if got[i] != wantDelays[i] {
			t.Fatalf("backoff round %d slept %v, want %v", i+1, got[i], wantDelays[i])
		}
	}
	if router.metrics.retries.Load() != 7 {
		t.Fatalf("retries counter %d, want 7", router.metrics.retries.Load())
	}
}

// TestRetryBudgetExhausted: a shard that never answers consumes exactly
// MaxAttempts tries and then fails the query with the underlying error.
func TestRetryBudgetExhausted(t *testing.T) {
	full, queries := fullIndex(t)
	flaky, attempts := flakyShard(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1<<30)

	rs := &recordingSleeper{}
	router := newRouter(t, 8, [][]string{{flaky.URL}}, func(c *Config) {
		c.HedgeDelay = -1
		c.MaxAttempts = 3
		c.sleep = rs.sleep
		c.jitter = func(n int64) int64 { return 0 }
	})

	_, err := router.Search(context.Background(), queries.Row(0), SearchOptions{K: 5, NProbe: 8})
	if err == nil {
		t.Fatal("search succeeded against a permanently failing shard")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("shard saw %d attempts, want exactly MaxAttempts=3", got)
	}
	if sleeps := len(rs.recorded()); sleeps != 2 {
		t.Fatalf("%d backoff sleeps for 3 attempts, want 2", sleeps)
	}
}

// TestNoRetryAfterContextDone: once the caller's context is cancelled,
// no further attempt is launched — the sleeper reports the cancellation
// and the query returns the first error immediately.
func TestNoRetryAfterContextDone(t *testing.T) {
	full, queries := fullIndex(t)
	flaky, attempts := flakyShard(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1<<30)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	router := newRouter(t, 8, [][]string{{flaky.URL}}, func(c *Config) {
		c.HedgeDelay = -1
		c.MaxAttempts = 10
		c.sleep = func(ctx context.Context, d time.Duration) bool {
			cancel() // the caller gives up while the first backoff waits
			<-ctx.Done()
			return false
		}
	})

	_, err := router.Search(ctx, queries.Row(0), SearchOptions{K: 5, NProbe: 8})
	if err == nil {
		t.Fatal("search succeeded against a failing shard with a cancelled context")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("shard saw %d attempts after cancellation, want 1", got)
	}
}

// TestPartialResultsCoverage: with one of two shards dead, a default
// query fails, a ?partial=1 query degrades — answering from the
// surviving shard bit-identically to a single node restricted to its
// cells, reporting coverage, and bumping the partials counter.
func TestPartialResultsCoverage(t *testing.T) {
	full, queries := fullIndex(t)
	a := shardServer(t, full, []int{0, 1, 2, 3})
	b := shardServer(t, full, []int{4, 5, 6, 7})
	router := newRouter(t, 8, [][]string{{a.URL}, {b.URL}}, func(c *Config) {
		c.HedgeDelay = -1
		c.MaxAttempts = 1
		c.ShardTimeout = 2 * time.Second
	})
	b.Close() // shard b dies after the router validated the fleet

	q := queries.Row(2)
	if _, err := router.Search(context.Background(), q, SearchOptions{K: 10, NProbe: 8}); err == nil {
		t.Fatal("default query succeeded with a dead shard")
	}

	resp, err := router.Search(context.Background(), q, SearchOptions{K: 10, NProbe: 8, AllowPartial: true})
	if err != nil {
		t.Fatalf("partial query failed: %v", err)
	}
	if resp.Coverage == nil {
		t.Fatal("partial response carries no coverage")
	}
	if resp.Coverage.CellsTotal != 8 || resp.Coverage.CellsAnswered != 4 {
		t.Fatalf("coverage %+v, want 4 of 8 cells", resp.Coverage)
	}
	// The degraded answer equals a single node probing only the
	// surviving cells, in the same rank order.
	var survived []int
	for _, c := range resp.Partitions {
		if c <= 3 {
			survived = append(survived, c)
		}
	}
	want, err := full.Search(context.Background(), q, 10, pqfastscan.WithCells(survived...))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want.Results) {
		t.Fatalf("%d partial results, want %d", len(resp.Results), len(want.Results))
	}
	for i, w := range want.Results {
		if resp.Results[i].ID != w.ID || resp.Results[i].Distance != w.Distance {
			t.Fatalf("partial rank %d: %+v, want %+v", i, resp.Results[i], w)
		}
	}
	if router.metrics.partials.Load() != 1 {
		t.Fatalf("partials counter %d, want 1", router.metrics.partials.Load())
	}

	// Every shard dead: even a partial query must fail.
	a.Close()
	if _, err := router.Search(context.Background(), q, SearchOptions{K: 10, NProbe: 8, AllowPartial: true}); err == nil {
		t.Fatal("partial query succeeded with the whole fleet dead")
	}
}

// TestPartialQueryParam: the HTTP surface honors ?partial=1 and the
// response document carries the coverage field.
func TestPartialQueryParam(t *testing.T) {
	full, queries := fullIndex(t)
	a := shardServer(t, full, []int{0, 1, 2, 3})
	b := shardServer(t, full, []int{4, 5, 6, 7})
	router := newRouter(t, 8, [][]string{{a.URL}, {b.URL}}, func(c *Config) {
		c.HedgeDelay = -1
		c.MaxAttempts = 1
	})
	// A router running -allow-partial degrades with no query parameter.
	lenient := newRouter(t, 8, [][]string{{a.URL}, {b.URL}}, func(c *Config) {
		c.HedgeDelay = -1
		c.MaxAttempts = 1
		c.AllowPartial = true
	})
	handler := router.Handler()
	b.Close()

	req := server.SearchRequest{Query: queries.Row(0), K: 5, NProbe: 8}
	if status, _, _ := routerSearch(t, handler, req); status != http.StatusBadGateway {
		t.Fatalf("default query with dead shard: status %d, want 502", status)
	}
	status, resp, body := routerSearchPath(t, handler, "/search?partial=1", req)
	if status != http.StatusOK {
		t.Fatalf("?partial=1 query: status %d (%s)", status, body)
	}
	if resp.Coverage == nil || resp.Coverage.CellsAnswered != 4 || resp.Coverage.CellsTotal != 8 {
		t.Fatalf("?partial=1 coverage %+v, want 4 of 8", resp.Coverage)
	}
	if len(resp.Results) == 0 {
		t.Fatal("?partial=1 returned no results")
	}

	status, resp, body = routerSearchPath(t, lenient.Handler(), "/search", req)
	if status != http.StatusOK {
		t.Fatalf("AllowPartial router: status %d (%s)", status, body)
	}
	if resp.Coverage == nil || resp.Coverage.CellsAnswered != 4 {
		t.Fatalf("AllowPartial router coverage %+v, want 4 answered", resp.Coverage)
	}
}

// routerSearchPath is routerSearch with an explicit request path (query
// parameters included).
func routerSearchPath(t *testing.T, handler http.Handler, path string, req server.SearchRequest) (int, server.SearchResponse, string) {
	t.Helper()
	raw, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	var resp server.SearchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode response: %v (%s)", err, rec.Body.String())
		}
	}
	return rec.Code, resp, rec.Body.String()
}

// TestFailoverReusesMarshalledBody: a sub-request is marshalled once,
// before shardSearch, and every attempt posts those same bytes through a
// reader of its own. The body here is indented JSON — bytes json.Marshal
// never produces — so an attempt that re-encoded the request, or found
// the shared body already drained by the attempt before it, would show.
func TestFailoverReusesMarshalledBody(t *testing.T) {
	full, queries := fullIndex(t)
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s, err := server.New(server.Config{Index: full, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Three replicas of one shard sharing an attempt counter: whichever
	// two are asked first answer 503, the third serves.
	var mu sync.Mutex
	var bodies [][]byte
	replica := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/search" {
			s.Handler().ServeHTTP(w, r)
			return
		}
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, raw)
		attempt := len(bodies)
		mu.Unlock()
		if attempt <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		s.Handler().ServeHTTP(w, r)
	})
	var eps []string
	for i := 0; i < 3; i++ {
		hs := httptest.NewServer(replica)
		t.Cleanup(hs.Close)
		eps = append(eps, hs.URL)
	}
	router := newRouter(t, 8, [][]string{eps}, func(c *Config) { c.HedgeDelay = -1 })

	body, err := json.MarshalIndent(server.SearchRequest{Query: queries.Row(0), K: 5, Cells: cells}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := router.shardSearch(context.Background(), router.shards[0], body)
	if err != nil {
		t.Fatalf("sub-request with two failovers: %v", err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}
	if got := router.metrics.failovers.Load(); got != 2 {
		t.Fatalf("failovers = %d, want 2", got)
	}
	if len(bodies) != 3 {
		t.Fatalf("replicas saw %d attempts, want 3", len(bodies))
	}
	for i, got := range bodies {
		if !bytes.Equal(got, body) {
			t.Fatalf("attempt %d posted %d bytes that are not the %d marshalled once for the sub-request", i+1, len(got), len(body))
		}
	}
}

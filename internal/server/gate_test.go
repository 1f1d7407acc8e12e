package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan"
)

// --- a deterministic busy core -------------------------------------------

// waitFor spins until cond holds: the tests below wait on the event
// itself (a request queued, a server closing), never on a clock.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// heldCore is a server whose core gate is one slot wide and whose first
// search parks in onScan: everything admitted between entered and
// release finds the core busy and waits its turn.
type heldCore struct {
	s       *Server
	entered chan struct{} // closed once the first search is parked
	release func()        // lets it scan; idempotent
}

// holdCore must be called before the server sees any /search.
func holdCore(t *testing.T, s *Server) *heldCore {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	h := &heldCore{
		s:       s,
		entered: make(chan struct{}),
		release: func() { once.Do(func() { close(gate) }) },
	}
	var held atomic.Bool
	s.cores = make(chan struct{}, 1)
	s.onScan = func() {
		if held.CompareAndSwap(false, true) {
			close(h.entered)
			<-gate
		}
	}
	t.Cleanup(h.release)
	return h
}

// waitQueued returns once exactly n admitted requests are waiting for
// the core: they hold an admission token and no core slot.
func (h *heldCore) waitQueued(t *testing.T, n int) {
	t.Helper()
	waitFor(t, "queued requests", func() bool { return len(h.s.sem)-len(h.s.cores) == n })
}

type searchReply struct {
	status int
	body   string
}

// serveSearch runs one /search through the handler on the calling
// goroutine, under a context the test controls.
func serveSearch(ctx context.Context, s *Server, req SearchRequest) *httptest.ResponseRecorder {
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(raw)).WithContext(ctx))
	return w
}

// searchAsync posts one /search from its own goroutine.
func searchAsync(t *testing.T, url string, req SearchRequest) <-chan searchReply {
	t.Helper()
	out := make(chan searchReply, 1)
	go func() {
		status, body := postJSONStatus(t, url+"/search", req)
		out <- searchReply{status, body}
	}()
	return out
}

// occupy parks one request on the held core and returns its reply
// channel.
func (h *heldCore) occupy(t *testing.T, url string, req SearchRequest) <-chan searchReply {
	t.Helper()
	reply := searchAsync(t, url, req)
	<-h.entered
	return reply
}

// sameAsLibrary fails unless got is bit-identical, ids and distances, to
// what the library answers for the same query.
func sameAsLibrary(t *testing.T, what string, got SearchResponse, want *pqfastscan.SearchResult) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Errorf("%s: %d results, want %d", what, len(got.Results), len(want.Results))
		return
	}
	for r, n := range want.Results {
		if got.Results[r].ID != n.ID || got.Results[r].Distance != n.Distance {
			t.Errorf("%s rank %d: %+v, want %+v", what, r, got.Results[r], n)
			return
		}
	}
}

// --- the rule -----------------------------------------------------------

// TestIdleServerScansAtOnce: a lone request on an idle server is scanned
// at once on its own handler goroutine, having waited for nothing. And
// there is nothing behind the gate: New starts no goroutine and Close
// leaves none. Driven on this goroutine with no listener, so that every
// goroutine counted is the server's own.
func TestIdleServerScansAtOnce(t *testing.T) {
	idx, queries := sharedIndex(t)
	goroutines := runtime.NumGoroutine()
	s, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("New started %d goroutine(s); the gate needs none", got-goroutines)
	}
	if w := serveSearch(context.Background(), s, SearchRequest{Query: queries.Row(0), K: 5}); w.Code != http.StatusOK {
		t.Fatalf("lone request: status %d (%s)", w.Code, w.Body)
	}
	if b := s.StatsSnapshot().Batch; b.Calls != 1 || b.Queries != 1 || b.QueueWaitUs.P99 != 0 {
		t.Fatalf("lone request on an idle server: %+v, want one search and zero queue wait", b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("Close left %d goroutine(s) behind", got-goroutines)
	}
}

// TestQueueWaitOnStats reads batch.queue_wait_us off /stats: zero while
// every request finds a core free, non-zero once requests have queued.
func TestQueueWaitOnStats(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx})
	h := holdCore(t, s)

	type doc struct {
		Batch struct {
			QueueWaitUs struct {
				P50 *float64 `json:"p50"`
				P99 *float64 `json:"p99"`
			} `json:"queue_wait_us"`
		} `json:"batch"`
	}
	readStats := func() (p50, p99 float64) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d doc
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		if d.Batch.QueueWaitUs.P50 == nil || d.Batch.QueueWaitUs.P99 == nil {
			t.Fatal("/stats has no batch.queue_wait_us.{p50,p99}")
		}
		return *d.Batch.QueueWaitUs.P50, *d.Batch.QueueWaitUs.P99
	}

	holder := h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(0), K: 5})
	queued := []<-chan searchReply{
		searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(1), K: 5}),
		searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(2), K: 5}),
	}
	h.waitQueued(t, len(queued))
	// Only the holder has been observed so far, and it did not queue.
	if p50, p99 := readStats(); p50 != 0 || p99 != 0 {
		t.Fatalf("queue wait with nothing served from the queue: p50 %v p99 %v, want 0", p50, p99)
	}
	h.release()
	for _, ch := range append(queued, holder) {
		if r := <-ch; r.status != http.StatusOK {
			t.Fatalf("status %d (%s)", r.status, r.body)
		}
	}
	// Two of the three searches queued: the median and the tail are theirs.
	if p50, p99 := readStats(); p50 <= 0 || p99 < p50 {
		t.Fatalf("queue wait after two requests queued: p50 %v p99 %v, want > 0", p50, p99)
	}
}

// TestClientCancelFreesCore: a search runs under its own request's
// context. A client that goes away while its search holds a core is
// answered 499 (nobody reads it), is not counted as shed or as a
// deadline reject, and gives the core and its admission token back.
func TestClientCancelFreesCore(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, _ := newTestServer(t, Config{Index: idx})
	h := holdCore(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	status := make(chan int, 1)
	go func() { status <- serveSearch(ctx, s, SearchRequest{Query: queries.Row(0), K: 5, NProbe: 2}).Code }()
	<-h.entered // core taken, Search about to run
	cancel()
	h.release()
	if st := <-status; st != statusClientClosedRequest {
		t.Fatalf("client cancelled while holding a core: status %d, want 499", st)
	}
	if len(s.cores) != 0 || len(s.sem) != 0 {
		t.Fatalf("after the cancelled search: %d core slot(s) and %d token(s) still held", len(s.cores), len(s.sem))
	}
	if a := s.StatsSnapshot().Admission; a.Shed != 0 || a.DeadlineRejects != 0 {
		t.Fatalf("a client cancel counted as overload or a spent deadline: %+v", a)
	}
	if w := serveSearch(context.Background(), s, SearchRequest{Query: queries.Row(0), K: 5}); w.Code != http.StatusOK {
		t.Fatalf("next request: status %d (%s)", w.Code, w.Body)
	}
}

// TestCoreGateIsFIFO: requests that find every core busy are released in
// arrival order. Every scan parks in onScan until the test lets it go, so
// exactly one request can be answered per step, and it must be the one
// that has waited longest.
func TestCoreGateIsFIFO(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx})
	h := holdCore(t, s)
	entered, proceed, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) }) // a failed test must not strand the handlers
	s.onScan = func() {
		select {
		case entered <- struct{}{}:
		case <-stop:
			return
		}
		select {
		case <-proceed:
		case <-stop:
		}
	}

	const n = 4 // request 0 takes the core, 1..3 queue behind it
	answered := make(chan int, n)
	post := func(i int) {
		if st, body := postJSONStatus(t, hs.URL+"/search", SearchRequest{Query: queries.Row(i), K: 5}); st != http.StatusOK {
			t.Errorf("request %d: status %d (%s)", i, st, body)
		}
		answered <- i
	}
	go post(0)
	for step := 0; step < n; step++ {
		<-entered
		if step == 0 {
			for i := 1; i < n; i++ {
				go post(i)
				h.waitQueued(t, i) // admitted and waiting before the next one arrives
			}
		}
		proceed <- struct{}{}
		if got := <-answered; got != step {
			t.Fatalf("step %d answered request %d: the gate is not first come first served", step, got)
		}
	}
}

// TestCoreGateUnderContention hammers the gate at its real width from
// many more goroutines than cores, with mixed k: every request is
// answered, bit-identically to the library, and Close finds nothing left
// behind and refuses what comes after it.
func TestCoreGateUnderContention(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, err := New(Config{Index: idx, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 16, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q, k := queries.Row((w*each+i)%queries.Rows()), 3+(w+i)%3
				rec := serveSearch(context.Background(), s, SearchRequest{Query: q, K: k, NProbe: 2})
				var got SearchResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
					t.Errorf("worker %d request %d: status %d (%s)", w, i, rec.Code, rec.Body)
					return
				}
				want, err := idx.Search(context.Background(), q, k, pqfastscan.WithNProbe(2))
				if err != nil {
					t.Error(err)
					return
				}
				sameAsLibrary(t, fmt.Sprintf("worker %d request %d", w, i), got, want)
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	if len(s.cores) != 0 {
		t.Fatalf("after Close: %d core slot(s) still held", len(s.cores))
	}
	st := s.StatsSnapshot().Batch
	if st.Queries != workers*each {
		t.Fatalf("served %d of %d queries", st.Queries, workers*each)
	}
	if w := serveSearch(context.Background(), s, SearchRequest{Query: queries.Row(0), K: 5}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/search after Close: status %d, want 503 (%s)", w.Code, w.Body)
	}
	t.Logf("%d queries, queue wait p99 %.0f us", st.Queries, st.QueueWaitUs.P99)
}

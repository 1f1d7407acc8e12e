package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan"
)

// --- a deterministic busy executor --------------------------------------

// waitFor spins until cond holds: the tests below wait on the event
// itself (a job queued, a batcher closed), never on a clock.
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

// heldExecutor is a server whose executor is one slot wide and whose
// first SearchBatch parks on a gate: everything submitted between
// entered and release finds the executor busy and queues.
type heldExecutor struct {
	b       *batcher
	entered chan struct{} // closed once the first leader is parked
	release func()        // lets it scan; idempotent
}

// holdExecutor must be called before the server sees any /search.
func holdExecutor(t *testing.T, s *Server) *heldExecutor {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	h := &heldExecutor{
		b:       s.batch.Load(),
		entered: make(chan struct{}),
		release: func() { once.Do(func() { close(gate) }) },
	}
	var held atomic.Bool
	h.b.limit = 1
	h.b.onScan = func() {
		if held.CompareAndSwap(false, true) {
			close(h.entered)
			<-gate
		}
	}
	t.Cleanup(h.release)
	return h
}

// waitQueued returns once exactly n jobs are queued behind the held leader.
func (h *heldExecutor) waitQueued(t *testing.T, n int) {
	t.Helper()
	waitFor(t, "queued jobs", func() bool {
		h.b.mu.Lock()
		defer h.b.mu.Unlock()
		return len(h.b.pending) == n
	})
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

// occupy parks one request in the held executor and returns its reply
// channel.
func (h *heldExecutor) occupy(t *testing.T, url string, req SearchRequest) <-chan searchReply {
	t.Helper()
	reply := searchAsync(t, url, req)
	<-h.entered
	return reply
}

// --- the rule -----------------------------------------------------------

// TestNaturalBatchingWidensUnderLoad pins both halves of the rule: a
// lone request on an idle server is scanned at once, alone, on its own
// handler goroutine; N requests that arrive while the executor is busy
// are answered by one SearchBatch of width N. And there is no collector:
// New starts no goroutine and Close leaves none.
func TestNaturalBatchingWidensUnderLoad(t *testing.T) {
	idx, queries := sharedIndex(t)

	// Idle, driven on this goroutine with no listener so that every
	// goroutine counted is the server's own: width 1, nothing queued.
	goroutines := runtime.NumGoroutine()
	s, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("New started %d goroutine(s); batching needs none", got-goroutines)
	}
	if w := serveSearch(context.Background(), s, SearchRequest{Query: queries.Row(0), K: 5}); w.Code != http.StatusOK {
		t.Fatalf("lone request: status %d (%s)", w.Code, w.Body)
	}
	if b := s.StatsSnapshot().Batch; b.Calls != 1 || b.Queries != 1 || b.MaxWidth != 1 || b.QueueWaitUs.P99 != 0 {
		t.Fatalf("lone request on an idle server: %+v, want one width-1 call and zero queue wait", b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("Close left %d goroutine(s) behind", got-goroutines)
	}

	// Busy: everything that queues behind the held leader is one batch.
	s, hs := newTestServer(t, Config{Index: idx, MaxInFlight: 64})
	h := holdExecutor(t, s)
	holder := h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(0), K: 5})
	const n = 12
	replies := make([]<-chan searchReply, n)
	for i := range replies {
		replies[i] = searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(1 + i), K: 5})
	}
	h.waitQueued(t, n)
	h.release()
	for i, ch := range append(replies, holder) {
		if r := <-ch; r.status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, r.status, r.body)
		}
	}
	b := s.StatsSnapshot().Batch
	if b.Calls != 2 || b.Queries != n+1 || b.MaxWidth != n {
		t.Fatalf("%d requests queued behind a busy executor: %+v, want 2 calls (widths 1 and %d)", n, b, n)
	}
}

// TestQueueWaitOnStats reads batch.queue_wait_us off /stats: zero while
// every request finds a core free, non-zero once requests have queued.
func TestQueueWaitOnStats(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx})
	h := holdExecutor(t, s)

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
	// Two of the three jobs queued: the median and the tail are theirs.
	if p50, p99 := readStats(); p50 <= 0 || p99 < p50 {
		t.Fatalf("queue wait after two requests queued: p50 %v p99 %v, want > 0", p50, p99)
	}
}

// TestBatchRunsUnderServerDeadline: a batch scans under the server-owned
// SearchTimeout, never a client's context. A client whose context ends
// once its batch has formed cannot cancel the scan (which its neighbours
// may share): the SearchBatch it was parked in front of still answers.
func TestBatchRunsUnderServerDeadline(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, _ := newTestServer(t, Config{Index: idx})
	h := holdExecutor(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	status := make(chan int, 1)
	go func() { status <- serveSearch(ctx, s, SearchRequest{Query: queries.Row(0), K: 5}).Code }()
	<-h.entered // batch formed, SearchBatch about to run
	cancel()
	h.release()
	if st := <-status; st != http.StatusOK {
		t.Fatalf("client context cancelled after its batch formed: status %d, want 200", st)
	}
}

// TestNaturalBatchingUnderContention hammers the executor at its real
// width from many more goroutines than cores, with mixed batch keys:
// whichever way leadership is handed around, every request is answered,
// bit-identically to the library, and Close finds nothing left behind.
func TestNaturalBatchingUnderContention(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, err := New(Config{Index: idx, MaxBatch: 4, MaxInFlight: 64})
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
				if len(got.Results) != len(want.Results) {
					t.Errorf("worker %d request %d: %d results, want %d", w, i, len(got.Results), len(want.Results))
					return
				}
				for r, n := range want.Results {
					if got.Results[r].ID != n.ID || got.Results[r].Distance != n.Distance {
						t.Errorf("worker %d request %d rank %d: %+v, want %+v", w, i, r, got.Results[r], n)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	b := s.batch.Load()
	if b.running != 0 || len(b.pending) != 0 {
		t.Fatalf("after Close: %d leaders running, %d jobs pending", b.running, len(b.pending))
	}
	st := s.StatsSnapshot().Batch
	if st.Queries != workers*each || st.MaxWidth > 4 {
		t.Fatalf("served %d of %d queries, max width %d (MaxBatch 4)", st.Queries, workers*each, st.MaxWidth)
	}
	t.Logf("%d queries in %d calls, max width %d, queue wait p99 %.0f us", st.Queries, st.Calls, st.MaxWidth, st.QueueWaitUs.P99)
}

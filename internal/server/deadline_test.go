package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"pqfastscan"
)

// postWithDeadline posts a /search with a relative deadline budget.
func postWithDeadline(t *testing.T, url string, body any, deadlineMs string) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/search", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, deadlineMs)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestExpiredDeadlineRejectedAtTheDoor(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx})

	req := SearchRequest{Query: queries.Row(0), K: 5}
	for _, budget := range []string{"0", "-5"} {
		status, body := postWithDeadline(t, hs.URL, req, budget)
		if status != http.StatusGatewayTimeout {
			t.Fatalf("deadline %s: status %d, want 504: %s", budget, status, body)
		}
	}
	status, body := postWithDeadline(t, hs.URL, req, "not-a-number")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("malformed deadline: status %d, want 504: %s", status, body)
	}
	if got := s.StatsSnapshot().Admission.DeadlineRejects; got != 3 {
		t.Fatalf("deadline_rejects = %d, want 3", got)
	}

	// A generous budget passes through untouched.
	status, body = postWithDeadline(t, hs.URL, req, "5000")
	if status != http.StatusOK {
		t.Fatalf("live deadline: status %d: %s", status, body)
	}
}

// TestExpiredWhileQueuedDropped: a request whose deadline runs out while
// it waits for a core is answered 504 at its deadline — while the core
// is still held, so without any scan work spent on it — and the request
// queued beside it is answered as if it had never been there.
func TestExpiredWhileQueuedDropped(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx})
	h := holdCore(t, s)

	holder := h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(2), K: 5})
	neighbor := searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(1), K: 5, NProbe: 2})
	h.waitQueued(t, 1)
	// The holder keeps the only core until release, so this reply can
	// only be the deadline's.
	if st, body := postWithDeadline(t, hs.URL, SearchRequest{Query: queries.Row(0), K: 5}, "30"); st != http.StatusGatewayTimeout {
		t.Fatalf("doomed request: status %d, want 504: %s", st, body)
	}
	h.release()

	n := <-neighbor
	if n.status != http.StatusOK {
		t.Fatalf("neighbor in the same queue: status %d, want 200: %s", n.status, n.body)
	}
	if r := <-holder; r.status != http.StatusOK {
		t.Fatalf("holder: status %d: %s", r.status, r.body)
	}
	var got SearchResponse
	if err := json.Unmarshal([]byte(n.body), &got); err != nil {
		t.Fatal(err)
	}
	want, err := idx.Search(context.Background(), queries.Row(1), 5, pqfastscan.WithNProbe(2))
	if err != nil {
		t.Fatal(err)
	}
	sameAsLibrary(t, "neighbor", got, want)

	st := s.StatsSnapshot()
	if st.Admission.DeadlineRejects != 1 || st.Admission.Shed != 0 {
		t.Fatalf("deadline_rejects = %d, shed = %d; want 1 and 0", st.Admission.DeadlineRejects, st.Admission.Shed)
	}
	// No scan work burned: only the holder and the neighbor took a core.
	if st.Batch.Queries != 2 {
		t.Fatalf("searches = %d, want 2 (the expired request must not be scanned)", st.Batch.Queries)
	}
}

// TestDeadlineSpentInAdmissionLine: a budget that runs out while the
// request waits for an admission token is a 504 at the deadline, counted
// as a deadline reject — not a 429 after the full QueueTimeout, and not
// a shed: the shard was not overloaded by this request's measure, the
// request was out of time.
func TestDeadlineSpentInAdmissionLine(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx, MaxInFlight: 1, QueueTimeout: 5 * time.Second})
	h := holdCore(t, s)

	holder := h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(0), K: 5})
	start := time.Now()
	st, body := postWithDeadline(t, hs.URL, SearchRequest{Query: queries.Row(1), K: 5}, "20")
	if st != http.StatusGatewayTimeout {
		t.Fatalf("deadline spent in the admission line: status %d, want 504: %s", st, body)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("answered after %v: the 20 ms budget, not the 5 s QueueTimeout, bounds the wait", waited)
	}
	if a := s.StatsSnapshot().Admission; a.DeadlineRejects != 1 || a.Shed != 0 {
		t.Fatalf("deadline_rejects = %d, shed = %d; want 1 and 0", a.DeadlineRejects, a.Shed)
	}

	// A client that goes away in the same line is a 499 and counts as
	// neither.
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan int, 1)
	go func() { gone <- serveSearch(ctx, s, SearchRequest{Query: queries.Row(2), K: 5}).Code }()
	cancel()
	if st := <-gone; st != statusClientClosedRequest {
		t.Fatalf("client cancelled in the admission line: status %d, want 499", st)
	}
	if a := s.StatsSnapshot().Admission; a.DeadlineRejects != 1 || a.Shed != 0 {
		t.Fatalf("after a client cancel: deadline_rejects = %d, shed = %d; want 1 and 0", a.DeadlineRejects, a.Shed)
	}
	h.release()
	if r := <-holder; r.status != http.StatusOK {
		t.Fatalf("holder: status %d: %s", r.status, r.body)
	}
}

// postJSONStatus is postJSON but returns the body on any status.
func postJSONStatus(t *testing.T, url string, body any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

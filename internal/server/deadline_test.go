package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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

// TestExpiredInBatchWindowDropped: a request whose context is done by
// the time its batch is formed — its deadline ran out, or its client
// went away, while it queued for a core — must be dropped from the batch
// and answered 504 without any scan work spent on it, and the rest of
// its batch is unaffected. (There is no window any more; the name is
// kept because DESIGN.md §17 and earlier CHANGES entries point at it.)
func TestExpiredInBatchWindowDropped(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx, MaxBatch: 16})
	h := holdExecutor(t, s)

	holder := h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(2), K: 5})
	// The doomed request queues first, so it is the one promoted to lead
	// the batch it is then dropped from.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	doomed := make(chan *httptest.ResponseRecorder, 1)
	go func() { doomed <- serveSearch(ctx, s, SearchRequest{Query: queries.Row(0), K: 5}) }()
	h.waitQueued(t, 1)
	neighbor := searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(1), K: 5, NProbe: 2})
	h.waitQueued(t, 2)
	cancel()
	h.release()

	if d := <-doomed; d.Code != http.StatusGatewayTimeout {
		t.Fatalf("doomed request: status %d, want 504: %s", d.Code, d.Body)
	}
	n := <-neighbor
	if n.status != http.StatusOK {
		t.Fatalf("neighbor in the same batch: status %d, want 200: %s", n.status, n.body)
	}
	if r := <-holder; r.status != http.StatusOK {
		t.Fatalf("holder: status %d: %s", r.status, r.body)
	}

	// The neighbor's answer is bit-identical to a direct query — the
	// drop must not perturb the batch it was queued in.
	var got SearchResponse
	if err := json.Unmarshal([]byte(n.body), &got); err != nil {
		t.Fatal(err)
	}
	want, err := idx.Search(context.Background(), queries.Row(1), 5, pqfastscan.WithNProbe(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("neighbor got %d results, want %d", len(got.Results), len(want.Results))
	}
	for i, w := range want.Results {
		if got.Results[i].ID != w.ID || got.Results[i].Distance != w.Distance {
			t.Fatalf("neighbor rank %d: %+v, want %+v", i, got.Results[i], w)
		}
	}

	st := s.StatsSnapshot()
	if st.Admission.DeadlineRejects != 1 {
		t.Fatalf("deadline_rejects = %d, want 1", st.Admission.DeadlineRejects)
	}
	// No scan work burned: only the holder and the neighbor were scanned.
	if st.Batch.Queries != 2 {
		t.Fatalf("batched queries = %d, want 2 (the expired job must not be scanned)", st.Batch.Queries)
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

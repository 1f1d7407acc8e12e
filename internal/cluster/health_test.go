package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan/internal/server"
)

// --- quarantine state machine (driven directly) -------------------------

func TestQuarantineAndReinstate(t *testing.T) {
	full, _ := fullIndex(t)
	s1 := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})
	r := newRouter(t, 8, [][]string{{s1.URL}}, nil)
	st := r.endpoints[s1.URL]
	probeErr := errors.New("probe: connection refused")

	// Failures below the threshold change nothing.
	r.recordProbe(st, probeErr)
	r.recordProbe(st, probeErr)
	if st.quarantined.Load() {
		t.Fatal("quarantined below QuarantineAfter")
	}
	// A success resets the failure streak.
	r.recordProbe(st, nil)
	r.recordProbe(st, probeErr)
	r.recordProbe(st, probeErr)
	if st.quarantined.Load() {
		t.Fatal("success must reset the consecutive-failure streak")
	}
	// The third consecutive failure quarantines (QuarantineAfter = 3).
	r.recordProbe(st, probeErr)
	if !st.quarantined.Load() {
		t.Fatal("not quarantined at QuarantineAfter consecutive failures")
	}
	if r.metrics.quarantines.Load() != 1 || st.quarantines.Load() != 1 {
		t.Fatalf("quarantine counters router=%d endpoint=%d, want 1/1",
			r.metrics.quarantines.Load(), st.quarantines.Load())
	}

	// While quarantined, trip the breaker too — reinstatement must clear it.
	for i := 0; i < r.cfg.BreakerThreshold; i++ {
		st.breaker.Failure(time.Now())
	}
	if st.breaker.State() != breakerOpen {
		t.Fatal("fixture: breaker should be open")
	}

	// One healthy probe is not enough (ReinstateAfter = 2)...
	r.recordProbe(st, nil)
	if !st.quarantined.Load() {
		t.Fatal("reinstated below ReinstateAfter")
	}
	// ...the second reinstates and resets the breaker.
	r.recordProbe(st, nil)
	if st.quarantined.Load() {
		t.Fatal("not reinstated at ReinstateAfter consecutive successes")
	}
	if r.metrics.reinstatements.Load() != 1 || st.reinstatements.Load() != 1 {
		t.Fatalf("reinstatement counters router=%d endpoint=%d, want 1/1",
			r.metrics.reinstatements.Load(), st.reinstatements.Load())
	}
	if st.breaker.State() != breakerClosed {
		t.Fatal("reinstatement must clear the endpoint's breaker")
	}
}

// --- background prober (integration) ------------------------------------

// TestProberQuarantinesAndReinstates wraps a healthy shard so its
// /readyz can be flipped to 503, and watches the background prober
// quarantine and later reinstate it.
func TestProberQuarantinesAndReinstates(t *testing.T) {
	full, queries := fullIndex(t)
	inner := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})

	var sick atomic.Bool
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && sick.Load() {
			http.Error(w, "sick", http.StatusServiceUnavailable)
			return
		}
		var resp *http.Response
		var err error
		if r.Method == http.MethodGet {
			resp, err = http.Get(inner.URL + r.URL.Path)
		} else {
			resp, err = http.Post(inner.URL+r.URL.Path, "application/json", r.Body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	t.Cleanup(wrapped.Close)

	r := newRouter(t, 8, [][]string{{wrapped.URL}}, func(c *Config) {
		c.ProbeInterval = 5 * time.Millisecond
		c.ProbeTimeout = 200 * time.Millisecond
		c.QuarantineAfter = 2
		c.ReinstateAfter = 2
	})
	t.Cleanup(r.Close)
	st := r.endpoints[wrapped.URL]

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	sick.Store(true)
	waitFor("quarantine", func() bool { return st.quarantined.Load() })

	// The sole endpoint is quarantined — queries still work, because
	// quarantine is a preference, not a verdict: when it would leave a
	// shard with no candidates, pass 1 admits the quarantined endpoint.
	status, _, body := routerSearch(t, r.Handler(), server.SearchRequest{Query: queries.Row(0), K: 5, NProbe: 2})
	if status != http.StatusOK {
		t.Fatalf("search with every endpoint quarantined: status %d: %s", status, body)
	}

	sick.Store(false)
	waitFor("reinstatement", func() bool { return !st.quarantined.Load() })
	if st.reinstatements.Load() == 0 {
		t.Fatal("reinstatement counter did not move")
	}
}

// TestQuarantinedPrimarySkippedWithoutFailover: the point of health-driven
// membership is that a query routed around a known-dead primary costs no
// failover — the first launch already goes to the live replica.
func TestQuarantinedPrimarySkippedWithoutFailover(t *testing.T) {
	full, queries := fullIndex(t)
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	primary := shardServer(t, full, cells)
	replica := shardServer(t, full, cells)
	r := newRouter(t, 8, [][]string{{primary.URL, replica.URL}}, nil)

	// Oracle answer while everything is healthy.
	_, want, _ := routerSearch(t, r.Handler(), server.SearchRequest{Query: queries.Row(0), K: 5, NProbe: 4})

	// Kill the primary and quarantine it (as the prober would).
	primary.Close()
	r.endpoints[primary.URL].quarantined.Store(true)

	status, got, body := routerSearch(t, r.Handler(), server.SearchRequest{Query: queries.Row(0), K: 5, NProbe: 4})
	if status != http.StatusOK {
		t.Fatalf("search with quarantined primary: status %d: %s", status, body)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("rank %d: got %+v want %+v (quarantine rerouting must not change the answer)", i, got.Results[i], want.Results[i])
		}
	}
	if n := r.metrics.failovers.Load(); n != 0 {
		t.Fatalf("failovers = %d, want 0: a quarantined primary must be skipped at pick time, not discovered by a failed attempt", n)
	}
}

// --- /stats health surface ----------------------------------------------

func TestStatsExposeEndpointHealth(t *testing.T) {
	full, _ := fullIndex(t)
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	primary := shardServer(t, full, cells)
	replica := shardServer(t, full, cells)
	r := newRouter(t, 8, [][]string{{primary.URL, replica.URL}}, nil)

	// Manufacture state: quarantine the replica, trip the primary's breaker.
	rst := r.endpoints[replica.URL]
	rst.quarantined.Store(true)
	rst.quarantines.Add(1)
	pst := r.endpoints[primary.URL]
	for i := 0; i < r.cfg.BreakerThreshold; i++ {
		pst.breaker.Failure(time.Now())
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d", rec.Code)
	}
	var st RouterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Endpoints) != 2 {
		t.Fatalf("stats list %d endpoints, want 2", len(st.Endpoints))
	}
	byURL := map[string]EndpointStats{}
	for _, es := range st.Endpoints {
		byURL[es.Endpoint] = es
	}
	if es := byURL[primary.URL]; es.Breaker != "open" || es.BreakerOpens != 1 {
		t.Fatalf("primary row = %+v, want breaker open with 1 trip", es)
	}
	if es := byURL[replica.URL]; !es.Quarantined || es.Quarantines != 1 {
		t.Fatalf("replica row = %+v, want quarantined with 1 event", es)
	}
	// The raw JSON carries the documented field names.
	for _, field := range []string{`"breaker"`, `"quarantined"`, `"breaker_fast_fails"`, `"deadline_rejects"`, `"ambiguous_mutations"`} {
		if !strings.Contains(rec.Body.String(), field) {
			t.Fatalf("/stats body is missing %s: %s", field, rec.Body.String())
		}
	}
}

// --- deadline propagation (router side) ---------------------------------

func TestRouterRejectsExpiredDeadline(t *testing.T) {
	full, queries := fullIndex(t)
	s1 := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})
	r := newRouter(t, 8, [][]string{{s1.URL}}, nil)

	raw, _ := json.Marshal(server.SearchRequest{Query: queries.Row(0), K: 5})
	for _, budget := range []string{"0", "-10", "junk"} {
		req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(raw))
		req.Header.Set(server.DeadlineHeader, budget)
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("budget %q: status %d, want 504: %s", budget, rec.Code, rec.Body.String())
		}
	}
	if got := r.metrics.deadlineRejects.Load(); got != 3 {
		t.Fatalf("deadline_rejects = %d, want 3", got)
	}
}

// TestDeadlineForwardedToShards: the client's remaining budget must ride
// every sub-request as a relative header, and a budget that expires
// mid-fanout must surface as 504, not 502.
func TestDeadlineForwardedToShards(t *testing.T) {
	full, queries := fullIndex(t)
	inner := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})

	var sawBudget atomic.Int64 // last forwarded X-Pq-Deadline-Ms
	var stall atomic.Bool
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search" {
			if v := r.Header.Get(server.DeadlineHeader); v != "" {
				if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
					sawBudget.Store(ms)
				}
			}
			if stall.Load() {
				select {
				case <-time.After(2 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
		}
		var resp *http.Response
		var err error
		if r.Method == http.MethodGet {
			resp, err = http.Get(inner.URL + r.URL.Path)
		} else {
			resp, err = http.Post(inner.URL+r.URL.Path, "application/json", r.Body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	t.Cleanup(wrapped.Close)

	r := newRouter(t, 8, [][]string{{wrapped.URL}}, nil)
	raw, _ := json.Marshal(server.SearchRequest{Query: queries.Row(0), K: 5, NProbe: 2})

	// A generous budget succeeds and arrives at the shard, shrunk by
	// however long the router spent before the sub-request.
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(raw))
	req.Header.Set(server.DeadlineHeader, "5000")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search with live budget: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := sawBudget.Load(); got <= 0 || got > 5000 {
		t.Fatalf("shard saw forwarded budget %dms, want in (0, 5000]", got)
	}

	// A short budget against a stalled shard blows mid-fanout: 504.
	stall.Store(true)
	req = httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(raw))
	req.Header.Set(server.DeadlineHeader, "80")
	rec = httptest.NewRecorder()
	before := r.metrics.deadlineRejects.Load()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("search outliving its budget: status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if r.metrics.deadlineRejects.Load() != before+1 {
		t.Fatal("mid-fanout deadline blow must count as a deadline reject")
	}
}

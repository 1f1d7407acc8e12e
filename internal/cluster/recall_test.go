package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pqfastscan"
	"pqfastscan/internal/server"
	"pqfastscan/internal/vec"
)

// --- recall targets through the router ------------------------------

// routerSearchURL is routerSearch with a raw target (query params).
func routerSearchURL(t *testing.T, handler http.Handler, target string, req server.SearchRequest) (int, server.SearchResponse, string) {
	t.Helper()
	raw, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(raw)))
	var resp server.SearchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode response: %v (%s)", err, rec.Body.String())
		}
	}
	return rec.Code, resp, rec.Body.String()
}

// TestRouterRecallBitIdentity: a ?recall= query through the router must
// return exactly what a single node holding all cells returns for the
// same target — the router's mass-prefix nprobe plus the scatter-gather
// merge reproduce the single node's answer bit for bit.
func TestRouterRecallBitIdentity(t *testing.T) {
	full, queries := fullIndex(t)
	shardA := shardServer(t, full, []int{0, 1, 2, 3})
	shardB := shardServer(t, full, []int{4, 5, 6, 7})
	r := newRouter(t, 8, [][]string{{shardA.URL}, {shardB.URL}}, nil)
	h := r.Handler()
	ctx := context.Background()

	for qi := 0; qi < 6; qi++ {
		q := queries.Row(qi)
		for _, recall := range []string{"0.5", "0.9", "1.0"} {
			code, got, body := routerSearchURL(t, h, "/search?recall="+recall,
				server.SearchRequest{Query: q, K: 10})
			if code != http.StatusOK {
				t.Fatalf("recall=%s: %d %s", recall, code, body)
			}
			// The single-node reference: the facade's recall target over
			// the full index.
			var f float64
			fmt.Sscanf(recall, "%g", &f)
			want, err := full.Search(ctx, q, 10, pqfastscan.WithTargetRecall(f))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Partitions) != fmt.Sprint(want.Partitions) {
				t.Fatalf("recall=%s q%d: router probed %v, single node %v",
					recall, qi, got.Partitions, want.Partitions)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("recall=%s q%d: %d results vs %d", recall, qi, len(got.Results), len(want.Results))
			}
			for i, n := range want.Results {
				if got.Results[i].ID != n.ID || got.Results[i].Distance != n.Distance {
					t.Fatalf("recall=%s q%d result %d: router %+v, single node {%d %g}",
						recall, qi, i, got.Results[i], n.ID, n.Distance)
				}
			}
		}
	}
}

// TestRouterAutoForwarding: the router no longer plans or forwards
// ?auto=. A client still sending ?auto=1 gets exactly the plain query's
// answer, and no sub-request carries a query string to a shard. As on
// a node, a pinned nprobe wins over a recall target and a malformed
// target is a 400 before any fanout.
func TestRouterAutoForwarding(t *testing.T) {
	full, queries := fullIndex(t)
	var mu sync.Mutex
	var forwarded []string
	recording := func(cells []int) string {
		restricted, err := full.RestrictCells(cells...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Config{Index: restricted, Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		inner := s.Handler()
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/search" {
				mu.Lock()
				forwarded = append(forwarded, r.URL.RawQuery)
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			hs.Close()
			s.Close()
		})
		return hs.URL
	}
	shardA := recording([]int{0, 1, 2, 3})
	shardB := recording([]int{4, 5, 6, 7})
	r := newRouter(t, 8, [][]string{{shardA}, {shardB}}, nil)
	h := r.Handler()
	q := queries.Row(7)

	code, auto, body := routerSearchURL(t, h, "/search?auto=1", server.SearchRequest{Query: q, K: 10, NProbe: 4})
	if code != http.StatusOK {
		t.Fatalf("auto: %d %s", code, body)
	}
	code, plain, body := routerSearchURL(t, h, "/search", server.SearchRequest{Query: q, K: 10, NProbe: 4})
	if code != http.StatusOK {
		t.Fatalf("plain: %d %s", code, body)
	}
	if fmt.Sprint(auto.Partitions) != fmt.Sprint(plain.Partitions) || len(auto.Results) != len(plain.Results) {
		t.Fatalf("auto diverged: %+v vs %+v", auto, plain)
	}
	for i := range plain.Results {
		if auto.Results[i] != plain.Results[i] {
			t.Fatalf("auto result %d: %+v vs %+v", i, auto.Results[i], plain.Results[i])
		}
	}
	seen := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), forwarded...)
	}
	sent := seen()
	if len(sent) == 0 {
		t.Fatal("no sub-request reached a shard")
	}
	for i, raw := range sent {
		if raw != "" {
			t.Errorf("sub-request %d forwarded query string %q", i, raw)
		}
	}

	code, pinned, body := routerSearchURL(t, h, "/search?recall=1.0", server.SearchRequest{Query: q, K: 10, NProbe: 2})
	if code != http.StatusOK {
		t.Fatalf("pinned: %d %s", code, body)
	}
	if len(pinned.Partitions) != 2 {
		t.Fatalf("pinned nprobe=2 overridden by recall: probed %v", pinned.Partitions)
	}
	before := len(seen())
	for _, bad := range []string{"0", "-0.1", "1.5", "nan"} {
		if code, _, body := routerSearchURL(t, h, "/search?recall="+bad, server.SearchRequest{Query: q, K: 10}); code != http.StatusBadRequest {
			t.Errorf("recall=%s accepted: %d %s", bad, code, body)
		}
	}
	if after := len(seen()); after != before {
		t.Errorf("malformed recall targets sent %d sub-requests", after-before)
	}
}

// TestProbeSetReadsOnlyItsArguments: probeSet follows the fleetMeta and
// ranking Search hands it, not whatever r.meta holds by then — a fleet
// swap landing between Search's load and the fan-out must not pair a
// prefix chosen on one centroid set with the ranking of another, nor
// send a cell to the shard another view assigns it.
func TestProbeSetReadsOnlyItsArguments(t *testing.T) {
	line := func(xs ...float32) vec.Matrix {
		m := vec.NewMatrix(len(xs), 1)
		for i, x := range xs {
			m.Row(i)[0] = x
		}
		return m
	}
	r := &Router{shards: make([]*shard, 2)}
	r.meta.Store(&fleetMeta{dim: 1, partitions: 4, coarse: line(0, 1, 2, 3), byCell: []int{0, 0, 1, 1}})
	meta := r.meta.Load()
	// The swap: same dim and partitions, centroids and cell owners in
	// the opposite order.
	r.meta.Store(&fleetMeta{dim: 1, partitions: 4, coarse: line(3, 2, 1, 0), byCell: []int{1, 1, 0, 0}})

	query := []float32{0.1}
	for _, tc := range []struct {
		name    string
		ranked  []int
		nprobe  int
		cells   []int
		probe   string
		byShard string
	}{
		{"ranks on the meta passed in", nil, 3, nil, "[0 1 2]", "[[0 1] [2]]"},
		{"reuses the ranking passed in", []int{2, 0, 3, 1}, 3, nil, "[2 0 3]", "[[0] [2 3]]"},
		{"explicit cells skip ranking", nil, 0, []int{3, 1}, "[3 1]", "[[1] [3]]"},
	} {
		probe, byShard := r.probeSet(meta, query, tc.ranked, tc.nprobe, tc.cells)
		if fmt.Sprint(probe) != tc.probe || fmt.Sprint(byShard) != tc.byShard {
			t.Errorf("%s: probe %v byShard %v, want %s %s", tc.name, probe, byShard, tc.probe, tc.byShard)
		}
	}
}

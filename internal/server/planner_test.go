package server

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"pqfastscan"
	"pqfastscan/internal/plan"
)

// --- the planner over HTTP ----------------------------------------

// TestSearchRecallBitIdentity: a ?recall= planned answer must be
// bit-identical to the explicit request probing the same cell prefix —
// the property that makes the planner safe to turn on for a fleet.
func TestSearchRecallBitIdentity(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})

	for qi := 0; qi < 4; qi++ {
		q := queries.Row(qi)
		for _, recall := range []string{"0.5", "0.9", "1.0"} {
			var planned SearchResponse
			code, body := postJSON(t, hs.URL+"/search?recall="+recall,
				SearchRequest{Query: q, K: 10}, &planned)
			if code != 200 {
				t.Fatalf("planned search: %d %s", code, body)
			}
			if len(planned.Partitions) == 0 {
				t.Fatalf("planned search probed no partitions")
			}
			var fixed SearchResponse
			code, body = postJSON(t, hs.URL+"/search",
				SearchRequest{Query: q, K: 10, NProbe: len(planned.Partitions)}, &fixed)
			if code != 200 {
				t.Fatalf("fixed search: %d %s", code, body)
			}
			if fmt.Sprint(planned.Partitions) != fmt.Sprint(fixed.Partitions) {
				t.Fatalf("recall=%s probed %v, fixed nprobe probed %v",
					recall, planned.Partitions, fixed.Partitions)
			}
			if len(planned.Results) != len(fixed.Results) {
				t.Fatalf("recall=%s: %d results vs %d fixed", recall, len(planned.Results), len(fixed.Results))
			}
			for i := range fixed.Results {
				if planned.Results[i] != fixed.Results[i] {
					t.Fatalf("recall=%s result %d: planned %+v fixed %+v",
						recall, i, planned.Results[i], fixed.Results[i])
				}
			}
		}
	}
}

// TestPlannedMultiProbeOnPagedIndex: on a paged index the planner fans a
// multi-probe query's cells out across cores, and the served path runs
// that fan-out (it is the one place parallel probe workers run behind
// /search, so the race detector sees them here). Planned answers stay
// bit-identical to the library's sequential answers taken before the
// store was attached, and every fanned-out request is a parallel pick.
func TestPlannedMultiProbeOnPagedIndex(t *testing.T) {
	idx := buildIndex(t, 71, 2000, 6000)
	queries := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 72}).Generate(4)
	rows := []struct {
		name string
		url  string
		req  SearchRequest
		opts []pqfastscan.SearchOption
	}{
		{"auto, nprobe 2", "/search?auto=1", SearchRequest{K: 10, NProbe: 2}, []pqfastscan.SearchOption{pqfastscan.WithNProbe(2)}},
		{"auto, nprobe 4", "/search?auto=1", SearchRequest{K: 10, NProbe: 4}, []pqfastscan.SearchOption{pqfastscan.WithNProbe(4)}},
		{"auto, cells", "/search?auto=1", SearchRequest{K: 10, Cells: []int{3, 0, 2}}, []pqfastscan.SearchOption{pqfastscan.WithCells(3, 0, 2)}},
		{"recall 1.0", "/search?recall=1.0", SearchRequest{K: 10}, []pqfastscan.SearchOption{pqfastscan.WithNProbe(4)}},
	}
	want := make([][]*pqfastscan.SearchResult, len(rows))
	for ri, row := range rows {
		for qi := 0; qi < queries.Rows(); qi++ {
			res, err := idx.Search(t.Context(), queries.Row(qi), row.req.K, row.opts...)
			if err != nil {
				t.Fatal(err)
			}
			want[ri] = append(want[ri], res)
		}
	}

	cfg := Config{Index: idx}
	if os.Getenv("PQ_STORE_DIR") == "" { // under the paged CI leg the index is paged already
		cfg.StoreDir = t.TempDir()
	}
	_, hs := newTestServer(t, cfg)
	before := plan.Snapshot()
	for ri, row := range rows {
		for qi := 0; qi < queries.Rows(); qi++ {
			req := row.req
			req.Query = queries.Row(qi)
			var got SearchResponse
			if code, body := postJSON(t, hs.URL+row.url, req, &got); code != 200 {
				t.Fatalf("%s: %d %s", row.name, code, body)
			}
			if fmt.Sprint(got.Partitions) != fmt.Sprint(want[ri][qi].Partitions) {
				t.Fatalf("%s query %d probed %v, library probed %v", row.name, qi, got.Partitions, want[ri][qi].Partitions)
			}
			sameAsLibrary(t, fmt.Sprintf("%s query %d", row.name, qi), got, want[ri][qi])
		}
	}
	after := plan.Snapshot()
	asked := uint64(len(rows) * queries.Rows())
	if got := after.Planned - before.Planned; got != asked {
		t.Fatalf("planner.planned advanced by %d for %d planned requests", got, asked)
	}
	picks := after.ParallelPicks - before.ParallelPicks
	if runtime.GOMAXPROCS(0) > 1 && picks != asked {
		t.Fatalf("planner.parallel_picks advanced by %d: every one of the %d paged multi-probe requests should fan out", picks, asked)
	}
}

// TestSearchAutoParam: ?auto=1 plans a request on a non-Auto server,
// stays bit-identical to the default request, and bumps the planner
// counters; malformed ?recall= values are rejected before any work.
func TestSearchAutoParam(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})
	q := queries.Row(5)

	before := plan.Snapshot().Planned
	var auto SearchResponse
	if code, body := postJSON(t, hs.URL+"/search?auto=1", SearchRequest{Query: q, K: 10}, &auto); code != 200 {
		t.Fatalf("auto search: %d %s", code, body)
	}
	if got := plan.Snapshot().Planned; got <= before {
		t.Fatalf("planner not invoked: planned %d -> %d", before, got)
	}
	var plain SearchResponse
	if code, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: q, K: 10, NProbe: len(auto.Partitions)}, &plain); code != 200 {
		t.Fatalf("plain search: %d %s", code, body)
	}
	for i := range plain.Results {
		if auto.Results[i] != plain.Results[i] {
			t.Fatalf("auto result %d: %+v vs %+v", i, auto.Results[i], plain.Results[i])
		}
	}

	for _, bad := range []string{"0", "-1", "1.5", "nan", "x"} {
		if code, body := postJSON(t, hs.URL+"/search?recall="+bad, SearchRequest{Query: q, K: 10}, nil); code != 400 {
			t.Errorf("recall=%s accepted: %d %s", bad, code, body)
		}
	}

	// Explicit dimensions survive planning: a pinned nprobe is honored
	// even under a recall target that would widen it.
	var pinned SearchResponse
	if code, body := postJSON(t, hs.URL+"/search?recall=1.0", SearchRequest{Query: q, K: 10, NProbe: 2}, &pinned); code != 200 {
		t.Fatalf("pinned search: %d %s", code, body)
	}
	if len(pinned.Partitions) != 2 {
		t.Fatalf("pinned nprobe=2 overridden: probed %v", pinned.Partitions)
	}
}

// TestConfigAutoPlansByDefault: with Config.Auto every plain /search is
// planned, ?auto=0 opts out, and /stats reports the planner section with
// Enabled set.
func TestConfigAutoPlansByDefault(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx, Auto: true})
	q := queries.Row(6)

	before := plan.Snapshot().Planned
	if code, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: q, K: 10}, nil); code != 200 {
		t.Fatalf("search: %d %s", code, body)
	}
	mid := plan.Snapshot().Planned
	if mid <= before {
		t.Fatalf("Auto server did not plan: %d -> %d", before, mid)
	}
	if code, body := postJSON(t, hs.URL+"/search?auto=0", SearchRequest{Query: q, K: 10}, nil); code != 200 {
		t.Fatalf("opt-out search: %d %s", code, body)
	}
	if after := plan.Snapshot().Planned; after != mid {
		t.Fatalf("?auto=0 still planned: %d -> %d", mid, after)
	}

	var st Stats
	if code := getJSON(t, hs.URL+"/stats", &st); code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if !st.Planner.Enabled {
		t.Error("/stats planner.enabled false on an Auto server")
	}
	if st.Planner.Planned == 0 {
		t.Error("/stats planner.planned is zero after a planned search")
	}
	if len(st.Planner.NProbeHist) == 0 {
		t.Error("/stats planner.nprobe_hist empty after a planned search")
	}
}

package server

import (
	"fmt"
	"testing"

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

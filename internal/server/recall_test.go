package server

import (
	"fmt"
	"os"
	"testing"

	"pqfastscan"
)

// TestSearchRecallBitIdentity: a ?recall= answer must be bit-identical
// to the explicit request probing the same cell prefix.
func TestSearchRecallBitIdentity(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})

	for qi := 0; qi < 4; qi++ {
		q := queries.Row(qi)
		for _, recall := range []string{"0.5", "0.9", "1.0"} {
			var targeted SearchResponse
			code, body := postJSON(t, hs.URL+"/search?recall="+recall,
				SearchRequest{Query: q, K: 10}, &targeted)
			if code != 200 {
				t.Fatalf("recall search: %d %s", code, body)
			}
			if len(targeted.Partitions) == 0 {
				t.Fatalf("recall search probed no partitions")
			}
			var fixed SearchResponse
			code, body = postJSON(t, hs.URL+"/search",
				SearchRequest{Query: q, K: 10, NProbe: len(targeted.Partitions)}, &fixed)
			if code != 200 {
				t.Fatalf("fixed search: %d %s", code, body)
			}
			if fmt.Sprint(targeted.Partitions) != fmt.Sprint(fixed.Partitions) {
				t.Fatalf("recall=%s probed %v, fixed nprobe probed %v",
					recall, targeted.Partitions, fixed.Partitions)
			}
			if len(targeted.Results) != len(fixed.Results) {
				t.Fatalf("recall=%s: %d results vs %d fixed", recall, len(targeted.Results), len(fixed.Results))
			}
			for i := range fixed.Results {
				if targeted.Results[i] != fixed.Results[i] {
					t.Fatalf("recall=%s result %d: recall %+v fixed %+v",
						recall, i, targeted.Results[i], fixed.Results[i])
				}
			}
		}
	}
}

// TestPlannedMultiProbeOnPagedIndex: on a paged index a multi-probe
// query — a pinned nprobe, explicit cells, or the prefix a recall target
// picks — walks its cells in one carried scan, and its served answers
// stay bit-identical to the library's answers taken before the store
// was attached.
func TestPlannedMultiProbeOnPagedIndex(t *testing.T) {
	idx := buildIndex(t, 71, 2000, 6000)
	queries := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 72}).Generate(4)
	rows := []struct {
		name string
		url  string
		req  SearchRequest
		opts []pqfastscan.SearchOption
	}{
		{"nprobe 2", "/search", SearchRequest{K: 10, NProbe: 2}, []pqfastscan.SearchOption{pqfastscan.WithNProbe(2)}},
		{"nprobe 4", "/search", SearchRequest{K: 10, NProbe: 4}, []pqfastscan.SearchOption{pqfastscan.WithNProbe(4)}},
		{"cells", "/search", SearchRequest{K: 10, Cells: []int{3, 0, 2}}, []pqfastscan.SearchOption{pqfastscan.WithCells(3, 0, 2)}},
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
}

// TestSearchAutoParam: ?auto= is gone. A client still sending ?auto=1
// gets exactly the default request's answer; an explicit nprobe wins
// over a recall target that would widen it; malformed ?recall= values
// are rejected before any work.
func TestSearchAutoParam(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})
	q := queries.Row(5)

	var auto SearchResponse
	if code, body := postJSON(t, hs.URL+"/search?auto=1", SearchRequest{Query: q, K: 10}, &auto); code != 200 {
		t.Fatalf("auto search: %d %s", code, body)
	}
	var plain SearchResponse
	if code, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: q, K: 10}, &plain); code != 200 {
		t.Fatalf("plain search: %d %s", code, body)
	}
	if fmt.Sprint(auto.Partitions) != fmt.Sprint(plain.Partitions) || len(auto.Results) != len(plain.Results) {
		t.Fatalf("auto diverged: %+v vs %+v", auto, plain)
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

	var pinned SearchResponse
	if code, body := postJSON(t, hs.URL+"/search?recall=1.0", SearchRequest{Query: q, K: 10, NProbe: 2}, &pinned); code != 200 {
		t.Fatalf("pinned search: %d %s", code, body)
	}
	if len(pinned.Partitions) != 2 {
		t.Fatalf("pinned nprobe=2 overridden: probed %v", pinned.Partitions)
	}
}

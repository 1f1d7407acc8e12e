package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan"
)

// --- fixtures ----------------------------------------------------------

var (
	fixOnce    sync.Once
	fixIdx     *pqfastscan.Index // serving index (seed 11, 8000 vectors)
	fixQueries pqfastscan.Matrix
	fixGen     *pqfastscan.Dataset
	fixErr     error
)

func buildIndex(t *testing.T, seed uint64, learnN, baseN int) *pqfastscan.Index {
	t.Helper()
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: seed})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	idx, err := pqfastscan.Build(gen.Generate(learnN), gen.Generate(baseN), opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// sharedIndex returns a lazily built serving index plus a pool of
// queries. Tests that mutate or swap build their own instead.
func sharedIndex(t *testing.T) (*pqfastscan.Index, pqfastscan.Matrix) {
	t.Helper()
	fixOnce.Do(func() {
		fixGen = pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 11})
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = 4
		fixIdx, fixErr = pqfastscan.Build(fixGen.Generate(2000), fixGen.Generate(8000), opt)
		fixQueries = fixGen.Generate(64)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixIdx, fixQueries
}

// newTestServer starts a Server over HTTP and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	return postRaw(t, url, mustJSON(body), out)
}

// postRaw posts body as it is, which need not be one JSON value.
func postRaw(t *testing.T, url string, raw []byte, out any) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode, string(data)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode
}

// --- core API ----------------------------------------------------------

func TestSearchMatchesDirectQuery(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})

	for qi := 0; qi < 4; qi++ {
		q := queries.Row(qi)
		var got SearchResponse
		status, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: q, K: 10, NProbe: 2}, &got)
		if status != http.StatusOK {
			t.Fatalf("search status %d: %s", status, body)
		}
		want, err := idx.Search(t.Context(), q, 10, pqfastscan.WithNProbe(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
		}
		for i, r := range want.Results {
			if got.Results[i].ID != r.ID || got.Results[i].Distance != r.Distance {
				t.Fatalf("rank %d: got %+v want %+v", i, got.Results[i], r)
			}
		}
	}
}

// refusal is a request body a node answers 400, as it goes on the wire.
type refusal struct {
	name string
	body []byte
	says string // what the error must name, when it matters
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// searchRefusals lists /search bodies refused for a query q of an index
// with 4 partitions and dimension len(q) > 10.
func searchRefusals(q []float32) []refusal {
	return []refusal{
		{"short query", mustJSON(SearchRequest{Query: q[:10], K: 5}), ""},
		{"bad k", mustJSON(SearchRequest{Query: q, K: -2}), ""},
		{"huge k", mustJSON(SearchRequest{Query: q, K: 1 << 20}), ""},
		{"bad nprobe", mustJSON(SearchRequest{Query: q, K: 5, NProbe: 99}), ""},
		{"bad kernel", mustJSON(SearchRequest{Query: q, K: 5, Kernel: "warp"}), "naive, libpq, fastpq"},
		// The laboratory's kernels and the per-request backend pin were
		// requestable once; neither may be silently ignored now.
		{"laboratory kernel", mustJSON(SearchRequest{Query: q, K: 5, Kernel: "avx"}), "naive, libpq, fastpq"},
		{"backend key", mustJSON(map[string]any{"query": q, "k": 5, "backend": "swar"}), `"backend"`},
		{"backend key, auto", mustJSON(map[string]any{"query": q, "k": 5, "backend": "auto"}), `"backend"`},
		{"norm overflows float32", mustJSON(SearchRequest{Query: withComponent(q, 1e30), K: 5}), ""},
		{"norm overflows float32, all cells", mustJSON(SearchRequest{Query: withComponent(q, -1e30), K: 5, NProbe: 4}), ""},
		{"second JSON value", append(mustJSON(SearchRequest{Query: q, K: 5}), mustJSON(SearchRequest{Query: q, K: 6})...), ""},
	}
}

// addRefusals lists /add bodies refused around a valid vector good of
// dimension > 10.
func addRefusals(good []float32) []refusal {
	return []refusal{
		{"no vectors", mustJSON(AddRequest{}), ""},
		{"short vector", mustJSON(AddRequest{Vectors: [][]float32{good[:10]}}), ""},
		{"norm overflows float32", mustJSON(AddRequest{Vectors: [][]float32{withComponent(good, 1e30)}}), ""},
		{"second vector overflows", mustJSON(AddRequest{Vectors: [][]float32{good, withComponent(good, -1e30)}}), ""},
		{"second JSON value", append(mustJSON(AddRequest{Vectors: [][]float32{good}}), mustJSON(AddRequest{Vectors: [][]float32{good}})...), ""},
	}
}

// deleteRefusals lists /delete bodies refused: build-time ids start at
// 0, so a body naming no id must not delete id 0.
func deleteRefusals() []refusal {
	return []refusal{
		{"no id", []byte(`{}`), `"id"`},
		{"ids, not id", []byte(`{"ids":[7]}`), `"ids"`},
		{"null id", []byte(`{"id":null}`), `"id"`},
		{"second JSON value", []byte(`{"id":5}{"id":6}`), ""},
	}
}

// adminRefusals lists, per admin endpoint, bodies refused for an index
// of 4 partitions when snap is a loadable snapshot. A decoder that
// ignored unknown keys acted on each of the first three as if the key
// were absent: it saved to the configured path, swept every partition,
// swapped every cell.
func adminRefusals(snap string) map[string][]refusal {
	swap := []refusal{
		{"cells", mustJSON(map[string]any{"path": snap, "cells": []int{0}}), `"cells"`},
		{"no path", []byte(`{}`), "path"},
		{"blank path", []byte(`{"path":" "}`), "path"},
		{"empty body", nil, ""},
		{"second JSON value", append(mustJSON(SwapRequest{Path: snap}), mustJSON(SwapRequest{Path: snap})...), ""},
	}
	return map[string][]refusal{
		"/save": {
			{"misspelt path", []byte(`{"paht":"/x/wanted.idx"}`), `"paht"`},
			{"second JSON value", []byte(`{}{}`), ""},
		},
		"/compact": {
			{"misspelt partition", []byte(`{"partiton":1}`), `"partiton"`},
			{"partition out of range", []byte(`{"partition":4}`), "[0,4)"},
			{"negative threshold", []byte(`{"threshold":-3}`), "[0,1]"},
			{"threshold above one", []byte(`{"threshold":7}`), "[0,1]"},
			{"threshold with a partition", []byte(`{"partition":2,"threshold":0.5}`), "partition 2"},
			{"second JSON value", []byte(`{"partition":1} {"partition":2}`), ""},
		},
		"/swap":         swap,
		"/swap/prepare": swap,
	}
}

// expectRefusals posts every case to url and wants a 400 with a JSON
// error naming what the case says, and then check() to hold.
func expectRefusals(t *testing.T, url string, cases []refusal, check func(name string)) {
	t.Helper()
	for _, c := range cases {
		status, body := postRaw(t, url, c.body, nil)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, status, body)
		}
		var e struct{ Error string }
		if json.Unmarshal([]byte(body), &e) != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", c.name, body)
		}
		if !strings.Contains(e.Error, c.says) {
			t.Errorf("%s: error %q does not name %s", c.name, e.Error, c.says)
		}
		if check != nil {
			check(c.name)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})
	expectRefusals(t, hs.URL+"/search", searchRefusals(queries.Row(0)), nil)
}

// withComponent returns a copy of v with its first component replaced.
func withComponent(v []float32, x float32) []float32 {
	out := append([]float32(nil), v...)
	out[0] = x
	return out
}

// TestAddValidation: a malformed /add is a 400 with a JSON error body
// and indexes nothing — in particular a vector whose squared norm
// overflows float32, which would otherwise be encoded (and WAL-logged)
// as a code for garbage.
func TestAddValidation(t *testing.T) {
	idx := buildIndex(t, 27, 2000, 4000)
	_, hs := newTestServer(t, Config{Index: idx})
	good := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 28}).Generate(1).Row(0)
	live := idx.Live()
	expectRefusals(t, hs.URL+"/add", addRefusals(good), func(name string) {
		if idx.Live() != live {
			t.Fatalf("%s: live %d, was %d: a rejected add indexed something", name, idx.Live(), live)
		}
	})
}

// TestDeleteValidation: a /delete body that names no id, or names more
// than one, is a 400 and deletes nothing — id 0 above all, which a body
// without "id" used to delete.
func TestDeleteValidation(t *testing.T) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 29})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	learn, base := gen.Generate(2000), gen.Generate(4000)
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Index: idx})
	live := idx.Live()
	expectRefusals(t, hs.URL+"/delete", deleteRefusals(), func(name string) {
		if idx.Live() != live {
			t.Fatalf("%s: live %d, was %d: a rejected delete deleted something", name, idx.Live(), live)
		}
	})
	var got SearchResponse
	if status, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: base.Row(0), K: 10, NProbe: 4}, &got); status != http.StatusOK {
		t.Fatalf("search: %d %s", status, body)
	}
	if !slices.ContainsFunc(got.Results, func(n SearchNeighbor) bool { return n.ID == 0 }) {
		t.Fatalf("id 0 is not among its own vector's neighbors %+v", got.Results)
	}
}

func TestAddDeleteOverHTTP(t *testing.T) {
	idx := buildIndex(t, 23, 2000, 4000)
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 24})
	_, hs := newTestServer(t, Config{Index: idx})

	liveBefore := idx.Live()
	vecs := gen.Generate(3)
	var added AddResponse
	req := AddRequest{Vectors: make([][]float32, vecs.Rows())}
	for i := range req.Vectors {
		req.Vectors[i] = vecs.Row(i)
	}
	if status, body := postJSON(t, hs.URL+"/add", req, &added); status != http.StatusOK {
		t.Fatalf("add status %d: %s", status, body)
	}
	if len(added.IDs) != 3 || idx.Live() != liveBefore+3 {
		t.Fatalf("added ids %v, live %d (was %d)", added.IDs, idx.Live(), liveBefore)
	}

	// An added vector must be findable as its own nearest neighbor.
	var found SearchResponse
	if status, body := postJSON(t, hs.URL+"/search",
		SearchRequest{Query: req.Vectors[0], K: 1, NProbe: 4}, &found); status != http.StatusOK {
		t.Fatalf("search status %d: %s", status, body)
	}
	if len(found.Results) != 1 || found.Results[0].ID != added.IDs[0] {
		t.Fatalf("nearest neighbor of added vector: %+v, want id %d", found.Results, added.IDs[0])
	}

	var del DeleteResponse
	if status, body := postJSON(t, hs.URL+"/delete", DeleteRequest{ID: added.IDs[0]}, &del); status != http.StatusOK || !del.Deleted {
		t.Fatalf("delete status %d deleted %v: %s", status, del.Deleted, body)
	}
	if status, _ := postJSON(t, hs.URL+"/search",
		SearchRequest{Query: req.Vectors[0], K: 1, NProbe: 4}, &found); status != http.StatusOK {
		t.Fatal("search after delete failed")
	}
	if len(found.Results) == 1 && found.Results[0].ID == added.IDs[0] {
		t.Fatalf("deleted id %d still returned", added.IDs[0])
	}
}

func TestHealthzAndStats(t *testing.T) {
	idx, _ := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})

	var health struct {
		Status  string `json:"status"`
		Live    int    `json:"live"`
		Backend string `json:"backend"`
	}
	if status := getJSON(t, hs.URL+"/healthz", &health); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if health.Status != "ok" || health.Live != idx.Live() {
		t.Fatalf("healthz %+v, live want %d", health, idx.Live())
	}
	if health.Backend != pqfastscan.ActiveBackend().String() {
		t.Fatalf("healthz backend %q, want %q (deployments verify the asm path through this field)",
			health.Backend, pqfastscan.ActiveBackend())
	}

	var st Stats
	if status := getJSON(t, hs.URL+"/stats", &st); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	if st.Backend != pqfastscan.ActiveBackend().String() {
		t.Fatalf("stats backend %q, want %q", st.Backend, pqfastscan.ActiveBackend())
	}
	if st.Endpoints["/healthz"].Requests != 1 {
		t.Fatalf("healthz request count %d, want 1", st.Endpoints["/healthz"].Requests)
	}
	if st.Admission.MaxInFlight <= 0 {
		t.Fatalf("admission defaults not applied: %+v", st.Admission)
	}
	if len(st.Partitions) != 4 {
		t.Fatalf("partitions %v", st.Partitions)
	}
}

// --- acceptance: load shedding ----------------------------------------

// TestLoadShedding saturates a deliberately tiny admission budget and
// asserts overload degrades by shedding: while the one admitted request
// holds the only token, every other request gets 429 after QueueTimeout,
// and the admitted one still completes.
func TestLoadShedding(t *testing.T) {
	idx, queries := sharedIndex(t)
	const n = 24
	s, hs := newTestServer(t, Config{
		Index:        idx,
		MaxInFlight:  1,
		QueueTimeout: 2 * time.Millisecond,
	})
	h := holdCore(t, s)

	admitted := h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(0), K: 5})
	surplus := make([]<-chan searchReply, n)
	for i := range surplus {
		surplus[i] = searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(i % queries.Rows()), K: 5})
	}
	for i, ch := range surplus {
		if r := <-ch; r.status != http.StatusTooManyRequests {
			t.Fatalf("surplus request %d: status %d, want 429 (%s)", i, r.status, r.body)
		}
	}
	h.release()
	if r := <-admitted; r.status != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200 (%s)", r.status, r.body)
	}
	if st := s.StatsSnapshot(); st.Admission.Shed != n || st.Batch.Queries != 1 {
		t.Fatalf("shed counter %d, searches %d; want %d shed and only the admitted request scanned",
			st.Admission.Shed, st.Batch.Queries, n)
	}
}

// --- acceptance: hot snapshot swap ------------------------------------

// TestHotSwapUnderTraffic streams queries while the serving snapshot is
// swapped for a different index loaded from disk: zero requests may
// fail, and after the swap searches are answered by the new snapshot.
func TestHotSwapUnderTraffic(t *testing.T) {
	idxA := buildIndex(t, 31, 2000, 5000)
	idxB := buildIndex(t, 32, 2000, 3000)
	snap := filepath.Join(t.TempDir(), "next.idx")
	if err := idxB.Save(snap); err != nil {
		t.Fatal(err)
	}
	liveB := idxB.Live()

	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 33})
	queries := gen.Generate(16)
	s, hs := newTestServer(t, Config{
		Index:       idxA,
		MaxInFlight: 64,
	})

	stop := make(chan struct{})
	var failed atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var resp SearchResponse
				status, body := postJSON(t, hs.URL+"/search",
					SearchRequest{Query: queries.Row((w*7 + i) % queries.Rows()), K: 5}, &resp)
				if status != http.StatusOK || len(resp.Results) == 0 {
					t.Logf("worker %d query %d: status %d body %s", w, i, status, body)
					failed.Add(1)
				}
				served.Add(1)
			}
		}(w)
	}

	waitFor(t, "queries to flow on snapshot A", func() bool { return served.Load() >= 20 })
	var swapped SwapResponse
	status, body := postJSON(t, hs.URL+"/swap", SwapRequest{Path: snap}, &swapped)
	if status != http.StatusOK || !swapped.Swapped {
		close(stop)
		wg.Wait()
		t.Fatalf("swap status %d: %s", status, body)
	}
	onB := served.Load() + 20
	waitFor(t, "queries to flow on snapshot B", func() bool { return served.Load() >= onB })
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests failed across the swap", failed.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic flowed during the swap window")
	}
	if got := s.Index().Live(); got != liveB {
		t.Fatalf("post-swap live count %d, want snapshot B's %d", got, liveB)
	}
	st := s.StatsSnapshot()
	if st.Snapshot.Swaps != 1 {
		t.Fatalf("swap counter %d, want 1", st.Snapshot.Swaps)
	}
	t.Logf("served %d queries across the swap with zero failures", served.Load())
}

func TestSwapRejectsIncompatibleAndMissing(t *testing.T) {
	idx, _ := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})

	if status, _ := postJSON(t, hs.URL+"/swap", SwapRequest{Path: "/does/not/exist.idx"}, nil); status != http.StatusBadRequest {
		t.Fatalf("missing snapshot: status %d, want 400", status)
	}

	// A 64-dimensional index is not query-compatible with the serving
	// 128-dimensional one; the swap must refuse and keep serving.
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 41, Dim: 64})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 2
	other, err := pqfastscan.Build(gen.Generate(1500), gen.Generate(1500), opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "incompatible.idx")
	if err := other.Save(snap); err != nil {
		t.Fatal(err)
	}
	if status, body := postJSON(t, hs.URL+"/swap", SwapRequest{Path: snap}, nil); status != http.StatusConflict {
		t.Fatalf("incompatible snapshot: status %d, want 409 (%s)", status, body)
	}
	if idx.Dim() != 128 {
		t.Fatal("serving index replaced by incompatible snapshot")
	}
}

// --- snapshot save -----------------------------------------------------

func TestSaveEndpointAndPeriodicSave(t *testing.T) {
	idx := buildIndex(t, 51, 2000, 3000)
	snap := filepath.Join(t.TempDir(), "serving.idx")
	s, hs := newTestServer(t, Config{
		Index:        idx,
		SnapshotPath: snap,
		SaveInterval: 30 * time.Millisecond,
	})

	var saved SaveResponse
	if status, body := postJSON(t, hs.URL+"/save", SaveRequest{}, &saved); status != http.StatusOK || !saved.Saved {
		t.Fatalf("save status %d: %s", status, body)
	}
	reloaded, err := pqfastscan.LoadIndex(saved.Path)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Live() != idx.Live() {
		t.Fatalf("reloaded snapshot live %d, want %d", reloaded.Live(), idx.Live())
	}

	// The background saver must tick at least once more.
	waitFor(t, "the periodic saver", func() bool { return s.metrics.saves.Load() >= 2 })
}

// TestAdminBodiesStrict: /save, /compact, /swap and /swap/prepare
// decode their bodies as strictly as /search does — a misspelt or
// unknown key is a 400 that saves, compacts, stages and swaps nothing —
// while an empty /save or /compact body still means the default.
func TestAdminBodiesStrict(t *testing.T) {
	idx := buildIndex(t, 57, 2000, 3000)
	dir := t.TempDir()
	configured, snap := filepath.Join(dir, "serving.idx"), filepath.Join(dir, "next.idx")
	if err := idx.Save(snap); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{Index: idx, SnapshotPath: configured})
	for ep, cases := range adminRefusals(snap) {
		expectRefusals(t, hs.URL+ep, cases, func(name string) {
			if _, err := os.Stat(configured); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s %s: the configured snapshot was written (%v)", ep, name, err)
			}
			s.stagedMu.Lock()
			staged := s.staged != nil
			s.stagedMu.Unlock()
			if staged || s.metrics.swaps.Load() != 0 || s.metrics.compactions.Load() != 0 {
				t.Fatalf("%s %s: staged %v, %d swaps, %d compactions", ep, name, staged, s.metrics.swaps.Load(), s.metrics.compactions.Load())
			}
		})
	}
	for _, ep := range []string{"/save", "/compact"} {
		if status, body := postRaw(t, hs.URL+ep, nil, nil); status != http.StatusOK {
			t.Fatalf("%s with an empty body: status %d (%s)", ep, status, body)
		}
	}
	if _, err := os.Stat(configured); err != nil {
		t.Fatalf("an empty /save did not write the configured snapshot: %v", err)
	}
}

// --- shutdown ----------------------------------------------------------

// TestCloseCompletesInFlight verifies shutdown serves already-admitted
// searches instead of stranding their handlers: Close returns only once
// every request admitted before it has its answer, and refuses the ones
// after.
func TestCloseCompletesInFlight(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, s)
	h := holdCore(t, s)

	const n = 6
	replies := []<-chan searchReply{h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(0), K: 3})}
	for i := 1; i < n; i++ {
		replies = append(replies, searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(i), K: 3}))
	}
	h.waitQueued(t, n-1)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "Close to begin", func() bool {
		select {
		case <-s.quit:
			return true
		default:
			return false
		}
	})
	if st, body := postJSONStatus(t, hs.URL+"/search", SearchRequest{Query: queries.Row(0), K: 3}); st != http.StatusServiceUnavailable {
		t.Fatalf("search after Close began: status %d, want 503 (%s)", st, body)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with one search scanning and others queued")
	default:
	}
	h.release()
	<-closed
	if got := s.StatsSnapshot().Batch.Queries; got != n {
		t.Fatalf("Close returned with %d of %d admitted searches answered", got, n)
	}
	for i, ch := range replies {
		if r := <-ch; r.status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, r.status, r.body)
		}
	}
}

func TestNewRequiresIndex(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil index")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	idx, _ := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})
	resp, err := http.Get(hs.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search status %d, want 405", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx, MaxBodyBytes: 256})
	status, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: queries.Row(0), K: 5}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400 (%s)", status, body)
	}
}

// --- delete 404, compaction --------------------------------------------

// TestDeleteNotFoundIs404: the typed ErrNotFound travels index → façade
// → HTTP as a 404, for never-assigned and double-deleted ids alike.
func TestDeleteNotFoundIs404(t *testing.T) {
	idx := buildIndex(t, 29, 2000, 4000)
	_, hs := newTestServer(t, Config{Index: idx})

	if status, body := postJSON(t, hs.URL+"/delete", DeleteRequest{ID: 1 << 40}, nil); status != http.StatusNotFound {
		t.Fatalf("never-assigned id: status %d, want 404 (%s)", status, body)
	}
	var del DeleteResponse
	if status, body := postJSON(t, hs.URL+"/delete", DeleteRequest{ID: 7}, &del); status != http.StatusOK || !del.Deleted {
		t.Fatalf("live id: status %d deleted %v (%s)", status, del.Deleted, body)
	}
	if status, body := postJSON(t, hs.URL+"/delete", DeleteRequest{ID: 7}, nil); status != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404 (%s)", status, body)
	}
}

// TestCompactEndpoint: /compact reclaims tombstones online, folds the
// tails /stats showed, bumps partition epochs in /stats, and leaves
// search answers unchanged.
func TestCompactEndpoint(t *testing.T) {
	idx := buildIndex(t, 31, 2000, 6000)
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 31})
	gen.Generate(2000 + 6000) // advance past learn+base
	queries := gen.Generate(4)
	_, hs := newTestServer(t, Config{Index: idx})

	fresh := gen.Generate(40)
	add := AddRequest{Vectors: make([][]float32, fresh.Rows())}
	for i := range add.Vectors {
		add.Vectors[i] = fresh.Row(i)
	}
	if status, body := postJSON(t, hs.URL+"/add", add, nil); status != http.StatusOK {
		t.Fatalf("add: status %d (%s)", status, body)
	}
	for id := int64(0); id < 3000; id += 2 {
		if status, body := postJSON(t, hs.URL+"/delete", DeleteRequest{ID: id}, nil); status != http.StatusOK {
			t.Fatalf("delete %d: status %d (%s)", id, status, body)
		}
	}
	var before Stats
	if status := getJSON(t, hs.URL+"/stats", &before); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	deadBefore, tailBefore := 0, 0
	for _, ps := range before.PartitionStats {
		deadBefore += ps.Dead
		tailBefore += ps.Tail
	}
	if deadBefore != 1500 || tailBefore != fresh.Rows() {
		t.Fatalf("stats report %d tombstones and %d rows in tails before compaction, want 1500 and %d", deadBefore, tailBefore, fresh.Rows())
	}
	var wantAnswers []SearchResponse
	for qi := 0; qi < queries.Rows(); qi++ {
		var resp SearchResponse
		if status, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: queries.Row(qi), K: 15, NProbe: 4}, &resp); status != http.StatusOK {
			t.Fatalf("search: status %d (%s)", status, body)
		}
		wantAnswers = append(wantAnswers, resp)
	}

	var comp CompactResponse
	if status, body := postJSON(t, hs.URL+"/compact", CompactRequest{Partition: -1, Threshold: 1e-9}, &comp); status != http.StatusOK {
		t.Fatalf("compact: status %d (%s)", status, body)
	}
	if comp.Reclaimed != 1500 {
		t.Fatalf("compaction reclaimed %d rows, want 1500", comp.Reclaimed)
	}

	var after Stats
	if status := getJSON(t, hs.URL+"/stats", &after); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	for i, ps := range after.PartitionStats {
		if ps.Dead != 0 || ps.Tail != 0 {
			t.Fatalf("partition %d still reports %d tombstones and a tail of %d", i, ps.Dead, ps.Tail)
		}
		if before.PartitionStats[i].Dead > 0 && ps.Epoch <= before.PartitionStats[i].Epoch {
			t.Fatalf("partition %d epoch did not advance across compaction", i)
		}
	}
	if after.Compaction.Runs != int64(len(comp.Compacted)) || after.Compaction.Reclaimed != 1500 {
		t.Fatalf("compaction stats %+v, want runs=%d reclaimed=1500", after.Compaction, len(comp.Compacted))
	}

	for qi := 0; qi < queries.Rows(); qi++ {
		var resp SearchResponse
		if status, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: queries.Row(qi), K: 15, NProbe: 4}, &resp); status != http.StatusOK {
			t.Fatalf("search after compact: status %d (%s)", status, body)
		}
		if len(resp.Results) != len(wantAnswers[qi].Results) {
			t.Fatalf("query %d: %d results after compaction, want %d", qi, len(resp.Results), len(wantAnswers[qi].Results))
		}
		for i := range resp.Results {
			if resp.Results[i] != wantAnswers[qi].Results[i] {
				t.Fatalf("query %d rank %d changed across compaction", qi, i)
			}
		}
	}

	// Single-partition mode: nothing left to reclaim.
	var one CompactResponse
	if status, body := postJSON(t, hs.URL+"/compact", CompactRequest{Partition: 0}, &one); status != http.StatusOK || one.Reclaimed != 0 {
		t.Fatalf("single-partition compact: status %d reclaimed %d (%s)", status, one.Reclaimed, body)
	}
	if status, _ := postJSON(t, hs.URL+"/compact", CompactRequest{Partition: 99}, nil); status != http.StatusBadRequest {
		t.Fatalf("out-of-range partition: status %d, want 400", status)
	}
}

// TestBackgroundCompactionPolicy: with CompactInterval set, partitions
// past the dead-ratio threshold are compacted without any endpoint call.
func TestBackgroundCompactionPolicy(t *testing.T) {
	idx := buildIndex(t, 37, 2000, 4000)
	_, hs := newTestServer(t, Config{
		Index:            idx,
		CompactInterval:  10 * time.Millisecond,
		CompactThreshold: 0.2,
	})
	for id := int64(0); id < 4000; id += 2 {
		if status, body := postJSON(t, hs.URL+"/delete", DeleteRequest{ID: id}, nil); status != http.StatusOK {
			t.Fatalf("delete %d: status %d (%s)", id, status, body)
		}
	}
	// The policy's steady state: every partition is back under the
	// threshold (residual tombstones below 20% are by design left for
	// the next crossing) and at least one compaction ran.
	var st Stats
	waitFor(t, "background compaction to settle", func() bool {
		if status := getJSON(t, hs.URL+"/stats", &st); status != http.StatusOK {
			t.Fatalf("stats status %d", status)
		}
		for _, ps := range st.PartitionStats {
			if ps.DeadRatio >= 0.2 {
				return false
			}
		}
		return st.Compaction.Runs > 0 && st.Compaction.Reclaimed > 0
	})
	if st.Live != 2000 {
		t.Fatalf("live %d after background compaction, want 2000", st.Live)
	}
}

// TestSaveDuringActiveCompaction: /save images taken while /compact and
// /delete republish partitions must every one load cleanly and carry a
// consistent snapshot.
func TestSaveDuringActiveCompaction(t *testing.T) {
	idx := buildIndex(t, 41, 2000, 6000)
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{Index: idx})

	var wg sync.WaitGroup
	var firstErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := int64(0); id < 3000; id++ {
			if status, body := postJSON(t, hs.URL+"/delete", DeleteRequest{ID: id}, nil); status != http.StatusOK {
				firstErr.CompareAndSwap(nil, errSaveSoak("delete "+body))
				return
			}
			if id%200 == 0 {
				if status, body := postJSON(t, hs.URL+"/compact", CompactRequest{Partition: -1, Threshold: 1e-9}, nil); status != http.StatusOK {
					firstErr.CompareAndSwap(nil, errSaveSoak("compact "+body))
					return
				}
			}
		}
	}()
	for i := 0; i < 8; i++ {
		path := filepath.Join(dir, "snap.pqfsidx")
		var sv SaveResponse
		if status, body := postJSON(t, hs.URL+"/save", SaveRequest{Path: path}, &sv); status != http.StatusOK || !sv.Saved {
			t.Fatalf("save %d: status %d (%s)", i, status, body)
		}
		loaded, err := pqfastscan.LoadIndex(path)
		if err != nil {
			t.Fatalf("save %d produced an unloadable image: %v", i, err)
		}
		total := 0
		for _, ps := range loaded.PartitionStats() {
			total += ps.Live
		}
		if total != loaded.Live() {
			t.Fatalf("save %d: inconsistent image (live %d vs partition sum %d)", i, loaded.Live(), total)
		}
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}
}

type errSaveSoak string

func (e errSaveSoak) Error() string { return string(e) }

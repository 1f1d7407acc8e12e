package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan"
	"pqfastscan/internal/server"
)

// --- fixtures ----------------------------------------------------------

var (
	fixOnce    sync.Once
	fixIdx     *pqfastscan.Index
	fixBase    pqfastscan.Matrix // row i is the vector of id i
	fixQueries pqfastscan.Matrix
	fixErr     error
)

// fullIndex returns a lazily built 8-cell index plus a pool of queries.
func fullIndex(t *testing.T) (*pqfastscan.Index, pqfastscan.Matrix) {
	t.Helper()
	fixOnce.Do(func() {
		gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 31})
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = 8
		learn := gen.Generate(3000)
		fixBase = gen.Generate(12000)
		fixIdx, fixErr = pqfastscan.Build(learn, fixBase, opt)
		fixQueries = gen.Generate(32)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixIdx, fixQueries
}

// shardServer stands up one in-process pqserve holding only the given
// cells of full, exactly as `pqserve -cells` would after loading the
// shared snapshot.
func shardServer(t *testing.T, full *pqfastscan.Index, cells []int) *httptest.Server {
	t.Helper()
	restricted, err := full.RestrictCells(cells...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Index: restricted, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs
}

// newRouter builds a Router over equal ranges of the given shard
// endpoints (each entry is one shard's endpoint list).
func newRouter(t *testing.T, partitions int, shardEndpoints [][]string, tune func(*Config)) *Router {
	t.Helper()
	per := partitions / len(shardEndpoints)
	cfg := Config{}
	for i, eps := range shardEndpoints {
		lo := i * per
		hi := lo + per - 1
		if i == len(shardEndpoints)-1 {
			hi = partitions - 1
		}
		cfg.Shards = append(cfg.Shards, ShardSpec{Lo: lo, Hi: hi, Endpoints: eps})
	}
	if tune != nil {
		tune(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func routerSearch(t *testing.T, handler http.Handler, req server.SearchRequest) (int, server.SearchResponse, string) {
	t.Helper()
	raw, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(raw)))
	var resp server.SearchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode response: %v (%s)", err, rec.Body.String())
		}
	}
	return rec.Code, resp, rec.Body.String()
}

// --- shard spec parsing ------------------------------------------------

func TestParseShardSpec(t *testing.T) {
	good := []struct {
		in   string
		want ShardSpec
	}{
		{"0-3=http://a:1", ShardSpec{0, 3, []string{"http://a:1"}}},
		{"4-7=http://a:1,http://b:2", ShardSpec{4, 7, []string{"http://a:1", "http://b:2"}}},
		{"5=localhost:9000", ShardSpec{5, 5, []string{"http://localhost:9000"}}},
		{" 0-1 = http://a/ ", ShardSpec{0, 1, []string{"http://a"}}},
	}
	for _, tc := range good {
		got, err := ParseShardSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseShardSpec(%q): %v", tc.in, err)
		}
		if got.Lo != tc.want.Lo || got.Hi != tc.want.Hi || len(got.Endpoints) != len(tc.want.Endpoints) {
			t.Fatalf("ParseShardSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		for i := range got.Endpoints {
			if got.Endpoints[i] != tc.want.Endpoints[i] {
				t.Fatalf("ParseShardSpec(%q) endpoint %d = %q, want %q", tc.in, i, got.Endpoints[i], tc.want.Endpoints[i])
			}
		}
	}
	bad := []string{"", "0-3", "x-3=http://a", "3-1=http://a", "-1-2=http://a", "0-3=", "0-3=,"}
	for _, in := range bad {
		if _, err := ParseShardSpec(in); err == nil {
			t.Fatalf("ParseShardSpec(%q) accepted malformed spec", in)
		}
	}
}

// --- the tentpole guarantee -------------------------------------------

// TestClusterOracleEquality is the acceptance criterion of DESIGN.md
// §13: a router over N shards answers every query bit-identically to a
// single node holding the whole index — same ids, same distances, same
// probe list — for 1, 2 and 4 shards, across nprobe values that cross
// shard boundaries.
func TestClusterOracleEquality(t *testing.T) {
	full, queries := fullIndex(t)
	layouts := map[string][][]int{
		"1shard":  {{0, 1, 2, 3, 4, 5, 6, 7}},
		"2shards": {{0, 1, 2, 3}, {4, 5, 6, 7}},
		"4shards": {{0, 1}, {2, 3}, {4, 5}, {6, 7}},
	}
	for name, layout := range layouts {
		t.Run(name, func(t *testing.T) {
			var eps [][]string
			for _, cells := range layout {
				eps = append(eps, []string{shardServer(t, full, cells).URL})
			}
			router := newRouter(t, 8, eps, nil)
			handler := router.Handler()

			for qi := 0; qi < 8; qi++ {
				q := queries.Row(qi)
				for _, nprobe := range []int{1, 2, 3, 8} {
					k := 5 + qi
					status, got, body := routerSearch(t, handler,
						server.SearchRequest{Query: q, K: k, NProbe: nprobe})
					if status != http.StatusOK {
						t.Fatalf("router search (nprobe=%d): status %d (%s)", nprobe, status, body)
					}
					want, err := full.Search(context.Background(), q, k, pqfastscan.WithNProbe(nprobe))
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Results) != len(want.Results) {
						t.Fatalf("query %d nprobe %d: %d results, single node has %d",
							qi, nprobe, len(got.Results), len(want.Results))
					}
					for i, w := range want.Results {
						if got.Results[i].ID != w.ID || got.Results[i].Distance != w.Distance {
							t.Fatalf("query %d nprobe %d rank %d: router %+v, single node %+v",
								qi, nprobe, i, got.Results[i], w)
						}
					}
					if len(got.Partitions) != len(want.Partitions) {
						t.Fatalf("query %d nprobe %d: probe list %v, single node %v",
							qi, nprobe, got.Partitions, want.Partitions)
					}
					for i := range want.Partitions {
						if got.Partitions[i] != want.Partitions[i] {
							t.Fatalf("query %d nprobe %d: probe list %v, single node %v",
								qi, nprobe, got.Partitions, want.Partitions)
						}
					}
				}
			}
		})
	}
}

// --- replica failover and hedging -------------------------------------

func TestFailoverToReplica(t *testing.T) {
	full, queries := fullIndex(t)
	liveA := shardServer(t, full, []int{0, 1, 2, 3})
	liveB := shardServer(t, full, []int{4, 5, 6, 7})

	// A dead primary: an endpoint that refuses connections.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	router := newRouter(t, 8, [][]string{
		{dead.URL, liveA.URL}, // primary down, replica up
		{liveB.URL},
	}, func(c *Config) { c.HedgeDelay = -1 }) // failover on error only

	q := queries.Row(0)
	resp, err := router.Search(context.Background(), q, SearchOptions{K: 10, NProbe: 8})
	if err != nil {
		t.Fatalf("search with dead primary: %v", err)
	}
	want, err := full.Search(context.Background(), q, 10, pqfastscan.WithNProbe(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Results {
		if resp.Results[i].ID != w.ID || resp.Results[i].Distance != w.Distance {
			t.Fatalf("failover result rank %d: %+v, want %+v", i, resp.Results[i], w)
		}
	}
	if got := router.metrics.failovers.Load(); got == 0 {
		t.Fatal("failover counter did not move")
	}
}

func TestHedgedRequestToSlowPrimary(t *testing.T) {
	full, queries := fullIndex(t)
	fast := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})

	// A slow primary: same data, but every /search stalls until the
	// router gives up on it or the test ends — far past the hedge delay.
	restricted, err := full.RestrictCells(0, 1, 2, 3, 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	slowSrv, err := server.New(server.Config{Index: restricted})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search" {
			select {
			case <-r.Context().Done():
				return
			case <-release:
			}
		}
		slowSrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		close(release)
		slow.Close()
		slowSrv.Close()
	})

	router := newRouter(t, 8, [][]string{{slow.URL, fast.URL}}, func(c *Config) {
		c.HedgeDelay = 10 * time.Millisecond
	})

	start := time.Now()
	resp, err := router.Search(context.Background(), queries.Row(0), SearchOptions{K: 10, NProbe: 2})
	if err != nil {
		t.Fatalf("hedged search: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged search took %v; the replica should have answered at ~hedge delay", elapsed)
	}
	if len(resp.Results) != 10 {
		t.Fatalf("hedged search returned %d results, want 10", len(resp.Results))
	}
	if got := router.metrics.hedges.Load(); got == 0 {
		t.Fatal("hedge counter did not move")
	}
}

// --- fleet swap --------------------------------------------------------

func TestFleetSwapUpdatesEveryEndpointAndMeta(t *testing.T) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 41})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	buildAt := func(n int) *pqfastscan.Index {
		idx, err := pqfastscan.Build(gen.Generate(2000), gen.Generate(n), opt)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	current := buildAt(4000)
	next := buildAt(6000)
	path := filepath.Join(t.TempDir(), "next.idx")
	if err := next.Save(path); err != nil {
		t.Fatal(err)
	}

	mkShard := func(cells []int) *httptest.Server {
		restricted, err := current.RestrictCells(cells...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Config{Index: restricted, Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(func() { hs.Close(); s.Close() })
		return hs
	}
	shardA := mkShard([]int{0, 1})
	shardB := mkShard([]int{2, 3})
	router := newRouter(t, 4, [][]string{{shardA.URL}, {shardB.URL}}, nil)

	result, err := router.SwapAll(context.Background(), path)
	if err != nil {
		t.Fatalf("fleet swap: %v", err)
	}
	if !result.Committed || len(result.Endpoints) != 2 {
		t.Fatalf("fleet swap result %+v, want committed on 2 endpoints", result)
	}

	// After the swap, the router must answer from the new snapshot,
	// bit-identically to a single node holding it.
	queries := gen.Generate(4)
	for qi := 0; qi < 4; qi++ {
		q := queries.Row(qi)
		resp, err := router.Search(context.Background(), q, SearchOptions{K: 8, NProbe: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := next.Search(context.Background(), q, 8, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(want.Results) {
			t.Fatalf("post-swap query %d: %d results, want %d", qi, len(resp.Results), len(want.Results))
		}
		for i, w := range want.Results {
			if resp.Results[i].ID != w.ID || resp.Results[i].Distance != w.Distance {
				t.Fatalf("post-swap query %d rank %d: %+v, want %+v", qi, i, resp.Results[i], w)
			}
		}
	}
}

func TestFleetSwapAbortsOnPrepareFailure(t *testing.T) {
	full, queries := fullIndex(t)
	shardA := shardServer(t, full, []int{0, 1, 2, 3})

	// Shard B refuses /swap/prepare, as a shard with a missing or
	// corrupt snapshot file would.
	restrictedB, err := full.RestrictCells(4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := server.New(server.Config{Index: restrictedB, Cells: []int{4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	shardB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/swap/prepare" {
			http.Error(w, `{"error":"disk on fire"}`, http.StatusInternalServerError)
			return
		}
		srvB.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { shardB.Close(); srvB.Close() })

	router := newRouter(t, 8, [][]string{{shardA.URL}, {shardB.URL}}, nil)

	// Give shard A a real, loadable snapshot so its prepare succeeds
	// and the abort path actually has something staged to discard.
	path := filepath.Join(t.TempDir(), "snap.idx")
	if err := full.Save(path); err != nil {
		t.Fatal(err)
	}
	liveBefore := queryLive(t, shardA.URL)
	result, err := router.SwapAll(context.Background(), path)
	if err == nil {
		t.Fatal("fleet swap succeeded although one prepare failed")
	}
	if result.Committed {
		t.Fatal("fleet swap reported committed after a prepare failure")
	}
	for _, es := range result.Endpoints {
		if es.Committed {
			t.Fatalf("endpoint %s committed during an aborted fleet swap", es.Endpoint)
		}
	}
	// Nothing changed on the healthy shard: same snapshot, and the
	// staged one was discarded (a direct commit now has nothing).
	if live := queryLive(t, shardA.URL); live != liveBefore {
		t.Fatalf("aborted swap changed shard A: live %d -> %d", liveBefore, live)
	}
	resp, err := http.Post(shardA.URL+"/swap/commit", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("commit after aborted fleet swap: status %d, want 409 (staged snapshot must be gone)", resp.StatusCode)
	}
	// And the fleet still answers queries.
	if _, err := router.Search(context.Background(), queries.Row(0), SearchOptions{K: 5, NProbe: 8}); err != nil {
		t.Fatalf("search after aborted swap: %v", err)
	}
}

// TestRouterSwapBodyStrict: the router decodes /swap with the node's
// server.DecodeSwap, so a body with a key SwapRequest has no field for
// — a "cells" list, which a lenient decoder dropped before swapping
// every cell — or without a path is a 400 before any shard is asked to
// prepare anything.
func TestRouterSwapBodyStrict(t *testing.T) {
	full, _ := fullIndex(t)
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	restricted, err := full.RestrictCells(cells...)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := server.New(server.Config{Index: restricted, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	var arrived atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/swap") {
			arrived.Add(1)
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { shard.Close(); inner.Close() })
	router := newRouter(t, 8, [][]string{{shard.URL}}, nil)
	for _, body := range []string{`{"path":"/x/next.idx","cells":[0]}`, `{}`, ``, `{"path":"/x/next.idx"} {}`} {
		rec := httptest.NewRecorder()
		router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/swap", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("/swap %s: status %d, want 400 (%s)", body, rec.Code, rec.Body.String())
		}
	}
	if n := arrived.Load(); n != 0 {
		t.Fatalf("%d swap requests reached the shard, want 0", n)
	}
}

func queryLive(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Live int `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Live
}

// --- startup validation ------------------------------------------------

func TestNewRejectsBadShardMaps(t *testing.T) {
	full, _ := fullIndex(t)
	a := shardServer(t, full, []int{0, 1, 2, 3})
	b := shardServer(t, full, []int{4, 5, 6, 7})

	cases := []struct {
		name   string
		shards []ShardSpec
	}{
		{"gap", []ShardSpec{
			{Lo: 0, Hi: 3, Endpoints: []string{a.URL}},
			{Lo: 5, Hi: 7, Endpoints: []string{b.URL}},
		}},
		{"overlap", []ShardSpec{
			{Lo: 0, Hi: 4, Endpoints: []string{a.URL}},
			{Lo: 4, Hi: 7, Endpoints: []string{b.URL}},
		}},
		{"out of range", []ShardSpec{
			{Lo: 0, Hi: 3, Endpoints: []string{a.URL}},
			{Lo: 4, Hi: 9, Endpoints: []string{b.URL}},
		}},
		{"cell not served by shard", []ShardSpec{
			{Lo: 0, Hi: 4, Endpoints: []string{a.URL}}, // a serves only 0-3
			{Lo: 5, Hi: 7, Endpoints: []string{b.URL}},
		}},
	}
	for _, tc := range cases {
		if _, err := New(Config{Shards: tc.shards}); err == nil {
			t.Fatalf("%s: New accepted an invalid shard map", tc.name)
		}
	}
}

func TestNewRejectsMismatchedGeometry(t *testing.T) {
	full, _ := fullIndex(t)
	a := shardServer(t, full, []int{0, 1, 2, 3})

	// A shard from a different build: same shape, different centroids.
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 77})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 8
	other, err := pqfastscan.Build(gen.Generate(2000), gen.Generate(4000), opt)
	if err != nil {
		t.Fatal(err)
	}
	b := shardServer(t, other, []int{4, 5, 6, 7})

	_, err = New(Config{Shards: []ShardSpec{
		{Lo: 0, Hi: 3, Endpoints: []string{a.URL}},
		{Lo: 4, Hi: 7, Endpoints: []string{b.URL}},
	}})
	if err == nil {
		t.Fatal("New accepted shards serving different snapshots")
	}
}

// TestRouterHandlerContract smoke-tests the HTTP surface: healthz,
// readyz flipping on drain, stats accounting, validation statuses.
func TestRouterHandlerContract(t *testing.T) {
	full, queries := fullIndex(t)
	a := shardServer(t, full, []int{0, 1, 2, 3})
	b := shardServer(t, full, []int{4, 5, 6, 7})
	router := newRouter(t, 8, [][]string{{a.URL}, {b.URL}}, nil)
	handler := router.Handler()

	get := func(path string) int {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if st := get("/healthz"); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}
	if st := get("/readyz"); st != http.StatusOK {
		t.Fatalf("readyz: %d", st)
	}

	if st, _, body := routerSearch(t, handler, server.SearchRequest{Query: queries.Row(0), K: 5, NProbe: 3}); st != http.StatusOK {
		t.Fatalf("search: %d (%s)", st, body)
	}
	if st, _, _ := routerSearch(t, handler, server.SearchRequest{Query: []float32{1, 2}, K: 5}); st != http.StatusBadRequest {
		t.Fatalf("bad dim: status %d, want 400", st)
	}
	if st, _, _ := routerSearch(t, handler, server.SearchRequest{Query: queries.Row(0), K: 5, NProbe: 99}); st != http.StatusBadRequest {
		t.Fatalf("bad nprobe: status %d, want 400", st)
	}

	var stats RouterStats
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries < 1 || stats.Rejected < 2 || len(stats.Shards) != 2 {
		t.Fatalf("stats accounting off: %+v", stats)
	}

	router.BeginDrain()
	if st := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", st)
	}
	if st := get("/healthz"); st != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", st)
	}
}

// countingShard is shardServer counting into arrived every /search,
// /add and /delete sub-request that reaches it.
func countingShard(t *testing.T, full *pqfastscan.Index, cells []int, arrived *atomic.Int64) string {
	t.Helper()
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
		if r.URL.Path == "/search" || r.URL.Path == "/add" || r.URL.Path == "/delete" {
			arrived.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs.URL
}

// TestRouterRejectsUnscorableVectorBeforeFanout: a query or added
// vector whose squared norm overflows float32 is the sender's mistake.
// The router answers 400 with a JSON error without spending a shard
// attempt on it — no sub-request arrives anywhere, and no endpoint's
// failure count, breaker or latency estimate moves, so one bad client
// cannot push healthy endpoints toward open.
func TestRouterRejectsUnscorableVectorBeforeFanout(t *testing.T) {
	full, queries := fullIndex(t)
	var arrived atomic.Int64
	router := newRouter(t, 8, [][]string{
		{countingShard(t, full, []int{0, 1, 2, 3}, &arrived)},
		{countingShard(t, full, []int{4, 5, 6, 7}, &arrived)},
	}, nil)
	handler := router.Handler()

	type endpointHealth struct {
		state   breakerState
		fails   int
		samples int64
	}
	health := func() map[string]endpointHealth {
		out := map[string]endpointHealth{}
		for url, es := range router.endpoints {
			es.breaker.mu.Lock()
			h := endpointHealth{state: es.breaker.state, fails: es.breaker.fails}
			es.breaker.mu.Unlock()
			_, h.samples = es.latency.Load()
			out[url] = h
		}
		return out
	}
	before, statsBefore := health(), router.Stats()

	bad := append([]float32(nil), queries.Row(0)...)
	bad[0] = 1e30
	post := func(path string, body any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		var e struct{ Error string }
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("%s: status %d body %q, want 400 with a JSON error", path, rec.Code, rec.Body.String())
		}
	}
	post("/search", server.SearchRequest{Query: bad, K: 5, NProbe: 8})
	post("/add", server.AddRequest{Vectors: [][]float32{queries.Row(1), bad}})

	if n := arrived.Load(); n != 0 {
		t.Errorf("%d sub-requests reached a shard for rejected requests, want 0", n)
	}
	if after := health(); !reflect.DeepEqual(before, after) {
		t.Errorf("endpoint health moved: before %+v, after %+v", before, after)
	}
	statsAfter := router.Stats()
	if statsAfter.Failovers != statsBefore.Failovers || statsAfter.Retries != statsBefore.Retries ||
		statsAfter.Errors != statsBefore.Errors || statsAfter.BreakerFastFails != statsBefore.BreakerFastFails {
		t.Errorf("router counters moved: before %+v, after %+v", statsBefore, statsAfter)
	}
}

// TestRouterRejectsBadKernelBeforeFanout: a kernel no node runs is the
// sender's mistake too. Sent on, every shard answered 400, which the
// router retried and counted against the endpoint: two such queries on
// a one-endpoint shard opened its breaker, and the next valid query got
// 502 "circuit open". The router names the kernel error itself, before
// any sub-request.
func TestRouterRejectsBadKernelBeforeFanout(t *testing.T) {
	full, queries := fullIndex(t)
	var arrived atomic.Int64
	router := newRouter(t, 8, [][]string{
		{countingShard(t, full, []int{0, 1, 2, 3}, &arrived)},
		{countingShard(t, full, []int{4, 5, 6, 7}, &arrived)},
	}, nil)
	h := router.Handler()
	q := queries.Row(2)

	for i := 0; i < 2; i++ {
		code, _, body := routerSearch(t, h, server.SearchRequest{Query: q, K: 5, NProbe: 8, Kernel: "bogus"})
		if code != http.StatusBadRequest || !strings.Contains(body, "naive, libpq, fastpq") {
			t.Fatalf("bogus kernel, request %d: %d %s, want 400 naming the three kernels", i, code, body)
		}
	}
	if n := arrived.Load(); n != 0 {
		t.Errorf("%d sub-requests reached a shard for rejected requests, want 0", n)
	}
	for _, es := range router.Stats().Endpoints {
		if es.BreakerOpens != 0 {
			t.Errorf("endpoint %s: breaker_opens %d after rejected requests, want 0", es.Endpoint, es.BreakerOpens)
		}
	}
	if code, _, body := routerSearch(t, h, server.SearchRequest{Query: q, K: 5, NProbe: 8}); code != http.StatusOK {
		t.Fatalf("valid query after the rejected ones: %d %s", code, body)
	}
}

// TestRouterRejectsWhatANodeRejects: clients cannot tell a router from
// a node, so a body a node refuses gets the node's 400 from the router
// too, before any sub-request. The cases are those of the server's
// TestSearchValidation, TestSearchCellsValidation, TestAddValidation and
// TestDeleteValidation, over this fixture's 8 cells. A /delete naming no
// id deleted id 0 on a node and, through a router, on every shard.
func TestRouterRejectsWhatANodeRejects(t *testing.T) {
	full, queries := fullIndex(t)
	node := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})
	var arrived atomic.Int64
	h := newRouter(t, 8, [][]string{
		{countingShard(t, full, []int{0, 1, 2, 3}, &arrived)},
		{countingShard(t, full, []int{4, 5, 6, 7}, &arrived)},
	}, nil).Handler()
	q, good := queries.Row(3), queries.Row(4)
	js := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	withComponent := func(v []float32, x float32) []float32 {
		out := append([]float32(nil), v...)
		out[0] = x
		return out
	}
	add := func(vs ...[]float32) []byte { return js(server.AddRequest{Vectors: vs}) }
	for _, c := range []struct {
		name, path string
		body       []byte
	}{
		{"short query", "/search", js(server.SearchRequest{Query: q[:10], K: 5})},
		{"bad k", "/search", js(server.SearchRequest{Query: q, K: -2})},
		{"huge k", "/search", js(server.SearchRequest{Query: q, K: 1 << 20})},
		{"bad nprobe", "/search", js(server.SearchRequest{Query: q, K: 5, NProbe: 99})},
		{"bad kernel", "/search", js(server.SearchRequest{Query: q, K: 5, Kernel: "warp"})},
		{"laboratory kernel", "/search", js(server.SearchRequest{Query: q, K: 5, Kernel: "avx"})},
		{"backend key", "/search", js(map[string]any{"query": q, "k": 5, "backend": "swar"})},
		{"backend key, auto", "/search", js(map[string]any{"query": q, "k": 5, "backend": "auto"})},
		{"norm overflows float32", "/search", js(server.SearchRequest{Query: withComponent(q, 1e30), K: 5})},
		{"norm overflows float32, all cells", "/search", js(server.SearchRequest{Query: withComponent(q, -1e30), K: 5, NProbe: 8})},
		{"second JSON value", "/search", append(js(server.SearchRequest{Query: q, K: 5}), js(server.SearchRequest{Query: q, K: 6})...)},
		{"cells and nprobe together", "/search", js(server.SearchRequest{Query: q, K: 5, NProbe: 2, Cells: []int{0}})},
		{"cells and nprobe 1", "/search", js(server.SearchRequest{Query: q, K: 5, NProbe: 1, Cells: []int{0}})},
		{"cell out of range", "/search", js(server.SearchRequest{Query: q, K: 5, Cells: []int{99}})},
		{"negative cell", "/search", js(server.SearchRequest{Query: q, K: 5, Cells: []int{-1}})},
		{"duplicate cell", "/search", js(server.SearchRequest{Query: q, K: 5, Cells: []int{1, 1}})},
		{"no vectors", "/add", add()},
		{"short vector", "/add", add(good[:10])},
		{"vector norm overflows float32", "/add", add(withComponent(good, 1e30))},
		{"second vector overflows", "/add", add(good, withComponent(good, -1e30))},
		{"second JSON value", "/add", append(add(good), add(good)...)},
		{"no id", "/delete", []byte(`{}`)},
		{"ids, not id", "/delete", []byte(`{"ids":[7]}`)},
		{"null id", "/delete", []byte(`{"id":null}`)},
		{"second JSON value", "/delete", []byte(`{"id":5}{"id":6}`)},
	} {
		resp, err := http.Post(node.URL+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
		if resp.StatusCode != http.StatusBadRequest || rec.Code != resp.StatusCode {
			t.Errorf("%s %s: node %d, router %d (%s); want both 400", c.path, c.name, resp.StatusCode, rec.Code, rec.Body.String())
		}
	}
	if n := arrived.Load(); n != 0 {
		t.Errorf("%d sub-requests reached a shard for refused requests, want 0", n)
	}

	// Nothing was deleted: id 0 is still its own vector's neighbor.
	probe := js(server.SearchRequest{Query: fixBase.Row(0), K: 10, NProbe: 8})
	resp, err := http.Post(node.URL+"/search", "application/json", bytes.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	var fromNode server.SearchResponse
	err = json.NewDecoder(resp.Body).Decode(&fromNode)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(probe)))
	var fromRouter server.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fromRouter); err != nil {
		t.Fatalf("router search: %d %s", rec.Code, rec.Body.String())
	}
	isZero := func(n server.SearchNeighbor) bool { return n.ID == 0 }
	if !slices.ContainsFunc(fromNode.Results, isZero) || !slices.ContainsFunc(fromRouter.Results, isZero) {
		t.Errorf("id 0 missing from its own vector's neighbors: node %+v, router %+v", fromNode.Results, fromRouter.Results)
	}
}

// TestExplicitCellsThroughRouter: a router accepts explicit cell lists
// too (it is a drop-in superset of a node), groups them by shard and
// still matches the single-node answer.
func TestExplicitCellsThroughRouter(t *testing.T) {
	full, queries := fullIndex(t)
	a := shardServer(t, full, []int{0, 1, 2, 3})
	b := shardServer(t, full, []int{4, 5, 6, 7})
	router := newRouter(t, 8, [][]string{{a.URL}, {b.URL}}, nil)

	q := queries.Row(3)
	cells := []int{6, 1, 4} // crosses both shards, out of rank order
	resp, err := router.Search(context.Background(), q, SearchOptions{K: 7, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Search(context.Background(), q, 7, pqfastscan.WithCells(cells...))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want.Results) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(want.Results))
	}
	for i, w := range want.Results {
		if resp.Results[i].ID != w.ID || resp.Results[i].Distance != w.Distance {
			t.Fatalf("rank %d: %+v, want %+v", i, resp.Results[i], w)
		}
	}
	for i, c := range cells {
		if resp.Partitions[i] != c {
			t.Fatalf("probe list %v, want %v", resp.Partitions, cells)
		}
	}
}

// Tests for the cluster-facing server features: explicit-cell search,
// liveness/readiness split, deferred index load, the two-phase snapshot
// swap and drain semantics (DESIGN.md §13).
package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"pqfastscan"
)

func TestSearchWithExplicitCells(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})

	for qi := 0; qi < 4; qi++ {
		q := queries.Row(qi)
		cells := []int{(qi % 4), (qi + 2) % 4}
		var got SearchResponse
		status, body := postJSON(t, hs.URL+"/search",
			SearchRequest{Query: q, K: 10, Cells: cells}, &got)
		if status != http.StatusOK {
			t.Fatalf("cells search status %d: %s", status, body)
		}
		want, err := idx.Search(t.Context(), q, 10, pqfastscan.WithCells(cells...))
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

// cellsRefusals lists /search bodies whose explicit cells are refused
// for a query q of an index with 4 partitions. Any nprobe beside cells
// is one, 1 included: the two answer the same question.
func cellsRefusals(q []float32) []refusal {
	return []refusal{
		{"cells and nprobe together", mustJSON(SearchRequest{Query: q, K: 5, NProbe: 2, Cells: []int{0}}), "mutually exclusive"},
		{"cells and nprobe 1", mustJSON(SearchRequest{Query: q, K: 5, NProbe: 1, Cells: []int{0}}), "mutually exclusive"},
		{"cell out of range", mustJSON(SearchRequest{Query: q, K: 5, Cells: []int{99}}), "out of range"},
		{"negative cell", mustJSON(SearchRequest{Query: q, K: 5, Cells: []int{-1}}), "out of range"},
		{"duplicate cell", mustJSON(SearchRequest{Query: q, K: 5, Cells: []int{1, 1}}), "listed twice"},
	}
}

func TestSearchCellsValidation(t *testing.T) {
	idx, queries := sharedIndex(t)
	_, hs := newTestServer(t, Config{Index: idx})
	expectRefusals(t, hs.URL+"/search", cellsRefusals(queries.Row(0)), nil)
}

func TestReadyzDuringDeferredLoad(t *testing.T) {
	idx, queries := sharedIndex(t)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	s, err := New(Config{Load: func() (*pqfastscan.Index, error) {
		<-release
		return idx, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// Runs before s.Close (LIFO), so a failing test cannot deadlock the
	// cleanup on a load goroutine still parked on release.
	t.Cleanup(releaseOnce)
	hs := newHTTPServer(t, s)

	// While loading: alive, not ready, data endpoints 503.
	if st := getJSON(t, hs.URL+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("healthz while warming: status %d, want 200", st)
	}
	if st := getJSON(t, hs.URL+"/readyz", nil); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz while warming: status %d, want 503", st)
	}
	if st, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: queries.Row(0), K: 3}, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("search while warming: status %d, want 503 (%s)", st, body)
	}

	releaseOnce()
	waitFor(t, "readiness after the load completed", func() bool {
		return getJSON(t, hs.URL+"/readyz", nil) == http.StatusOK
	})
	var got SearchResponse
	if st, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: queries.Row(0), K: 3}, &got); st != http.StatusOK {
		t.Fatalf("search after warmup: status %d (%s)", st, body)
	}
	if len(got.Results) != 3 {
		t.Fatalf("search after warmup returned %d results, want 3", len(got.Results))
	}
}

func TestReadyzAfterFailedLoad(t *testing.T) {
	s, err := New(Config{Load: func() (*pqfastscan.Index, error) {
		return nil, errLoadBoom
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	hs := newHTTPServer(t, s)

	waitFor(t, "the load failure to be recorded", func() bool {
		if st := getJSON(t, hs.URL+"/readyz", nil); st != http.StatusServiceUnavailable {
			t.Fatalf("readyz after failed load: status %d, want 503", st)
		}
		return s.loadErr.Load() != nil // once recorded, the 503 above was the final answer
	})
	if st := getJSON(t, hs.URL+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("healthz after failed load: status %d, want 200 (liveness must not flap)", st)
	}
}

var errLoadBoom = errBoom{}

type errBoom struct{}

func (errBoom) Error() string { return "disk on fire" }

func TestMetaEndpoint(t *testing.T) {
	idx, _ := sharedIndex(t)
	cells := []int{1, 3}
	_, hs := newTestServer(t, Config{Index: idx, Cells: cells})

	var meta MetaResponse
	if st := getJSON(t, hs.URL+"/meta", &meta); st != http.StatusOK {
		t.Fatalf("meta status %d", st)
	}
	if meta.Dim != idx.Dim() || meta.Partitions != idx.Partitions() || meta.PQM != idx.PQM() {
		t.Fatalf("meta geometry %+v disagrees with index (dim=%d parts=%d m=%d)",
			meta, idx.Dim(), idx.Partitions(), idx.PQM())
	}
	if len(meta.Cells) != 2 || meta.Cells[0] != 1 || meta.Cells[1] != 3 {
		t.Fatalf("meta cells = %v, want [1 3]", meta.Cells)
	}
	want := idx.CoarseCentroids()
	if len(meta.Centroids) != len(want) {
		t.Fatalf("meta has %d centroids, want %d", len(meta.Centroids), len(want))
	}
	// JSON must round-trip the centroids bit-exactly: the router ranks
	// cells with these floats and must reproduce the engine's order.
	for i := range want {
		for j := range want[i] {
			if meta.Centroids[i][j] != want[i][j] {
				t.Fatalf("centroid [%d][%d] = %v, want %v (JSON round trip not exact)",
					i, j, meta.Centroids[i][j], want[i][j])
			}
		}
	}
}

func TestTwoPhaseSwap(t *testing.T) {
	serving := buildIndex(t, 21, 2000, 4000)
	next := buildIndex(t, 22, 2000, 6000)
	path := filepath.Join(t.TempDir(), "next.idx")
	if err := next.Save(path); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Index: serving})

	// Commit with nothing staged is a protocol error.
	if st, body := postJSON(t, hs.URL+"/swap/commit", struct{}{}, nil); st != http.StatusConflict {
		t.Fatalf("commit without prepare: status %d, want 409 (%s)", st, body)
	}

	var prep PrepareResponse
	if st, body := postJSON(t, hs.URL+"/swap/prepare", SwapRequest{Path: path}, &prep); st != http.StatusOK {
		t.Fatalf("prepare: status %d (%s)", st, body)
	}
	if !prep.Prepared || prep.Live != next.Live() {
		t.Fatalf("prepare response %+v, want prepared with live=%d", prep, next.Live())
	}
	// Nothing is visible until commit.
	if serving.Live() == next.Live() {
		t.Fatal("prepare already changed the serving index")
	}

	var com CommitResponse
	if st, body := postJSON(t, hs.URL+"/swap/commit", struct{}{}, &com); st != http.StatusOK {
		t.Fatalf("commit: status %d (%s)", st, body)
	}
	if !com.Committed || com.Live != next.Live() || serving.Live() != next.Live() {
		t.Fatalf("commit response %+v; serving live %d, want %d", com, serving.Live(), next.Live())
	}

	// The staged slot is consumed: a second commit fails.
	if st, _ := postJSON(t, hs.URL+"/swap/commit", struct{}{}, nil); st != http.StatusConflict {
		t.Fatalf("second commit: status %d, want 409", st)
	}
}

func TestSwapAbortDiscardsStaged(t *testing.T) {
	serving := buildIndex(t, 23, 2000, 4000)
	next := buildIndex(t, 24, 2000, 5000)
	path := filepath.Join(t.TempDir(), "next.idx")
	if err := next.Save(path); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Index: serving})

	if st, body := postJSON(t, hs.URL+"/swap/prepare", SwapRequest{Path: path}, nil); st != http.StatusOK {
		t.Fatalf("prepare: status %d (%s)", st, body)
	}
	var ab AbortResponse
	if st, _ := postJSON(t, hs.URL+"/swap/abort", struct{}{}, &ab); st != http.StatusOK || !ab.Discarded {
		t.Fatalf("abort: status %d, response %+v, want discarded", st, ab)
	}
	// Abort with nothing staged succeeds but discards nothing.
	if st, _ := postJSON(t, hs.URL+"/swap/abort", struct{}{}, &ab); st != http.StatusOK || ab.Discarded {
		t.Fatalf("idempotent abort: status %d, response %+v, want not discarded", st, ab)
	}
	// And the staged snapshot is really gone.
	if st, _ := postJSON(t, hs.URL+"/swap/commit", struct{}{}, nil); st != http.StatusConflict {
		t.Fatalf("commit after abort: status %d, want 409", st)
	}
}

func TestSwapPrepareRejectsIncompatible(t *testing.T) {
	serving := buildIndex(t, 25, 2000, 4000)
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 26, Dim: 64})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	other, err := pqfastscan.Build(gen.Generate(2000), gen.Generate(3000), opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other.idx")
	if err := other.Save(path); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Index: serving})

	if st, body := postJSON(t, hs.URL+"/swap/prepare", SwapRequest{Path: path}, nil); st != http.StatusConflict {
		t.Fatalf("prepare of incompatible snapshot: status %d, want 409 (%s)", st, body)
	}
	if st, _ := postJSON(t, hs.URL+"/swap/commit", struct{}{}, nil); st != http.StatusConflict {
		t.Fatalf("commit after rejected prepare: status %d, want 409", st)
	}
}

func TestShardedServerLoadsOnlyItsCells(t *testing.T) {
	full := buildIndex(t, 27, 2000, 6000)
	path := filepath.Join(t.TempDir(), "full.idx")
	if err := full.Save(path); err != nil {
		t.Fatal(err)
	}
	cells := []int{0, 2}
	sizes := full.PartitionSizes()
	wantLive := sizes[0] + sizes[2]

	serving := buildIndex(t, 27, 2000, 100) // same geometry, placeholder data
	_, hs := newTestServer(t, Config{Index: serving, Cells: cells})

	// One-shot /swap applies the cell restriction.
	var swap SwapResponse
	if st, body := postJSON(t, hs.URL+"/swap", SwapRequest{Path: path}, &swap); st != http.StatusOK {
		t.Fatalf("swap: status %d (%s)", st, body)
	}
	if swap.Live != wantLive {
		t.Fatalf("sharded swap live = %d, want %d (cells 0+2 of %v)", swap.Live, wantLive, sizes)
	}
	for c, n := range swap.Partitions {
		holds := c == 0 || c == 2
		if holds && n != sizes[c] {
			t.Fatalf("cell %d holds %d vectors, want %d", c, n, sizes[c])
		}
		if !holds && n != 0 {
			t.Fatalf("cell %d should be empty on this shard, holds %d", c, n)
		}
	}

	// Two-phase prepare applies it too.
	if st, body := postJSON(t, hs.URL+"/swap/prepare", SwapRequest{Path: path}, nil); st != http.StatusOK {
		t.Fatalf("prepare: status %d (%s)", st, body)
	}
	var com CommitResponse
	if st, body := postJSON(t, hs.URL+"/swap/commit", struct{}{}, &com); st != http.StatusOK {
		t.Fatalf("commit: status %d (%s)", st, body)
	}
	if com.Live != wantLive {
		t.Fatalf("sharded two-phase swap live = %d, want %d", com.Live, wantLive)
	}
}

func TestDrainFlipsReadyzButKeepsServing(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, s)
	t.Cleanup(func() { s.Close() })

	if st := getJSON(t, hs.URL+"/readyz", nil); st != http.StatusOK {
		t.Fatalf("readyz before drain: status %d", st)
	}
	s.BeginDrain()
	if st := getJSON(t, hs.URL+"/readyz", nil); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", st)
	}
	if st := getJSON(t, hs.URL+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("healthz during drain: status %d, want 200", st)
	}
	// Requests already arriving keep being served during the drain.
	if st, body := postJSON(t, hs.URL+"/search", SearchRequest{Query: queries.Row(0), K: 3}, nil); st != http.StatusOK {
		t.Fatalf("search during drain: status %d (%s)", st, body)
	}
}

// TestShutdownCompletesInFlightRequest is the graceful-shutdown
// contract end to end: requests scanning or queued for a core when
// shutdown begins must complete with their answers, and the listener's
// Shutdown must wait for them. This mirrors the SIGTERM path of pqserve
// (BeginDrain → http.Server.Shutdown → server.Close).
func TestShutdownCompletesInFlightRequest(t *testing.T) {
	idx, queries := sharedIndex(t)
	s, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, s)
	h := holdCore(t, s)

	const n = 4
	replies := []<-chan searchReply{h.occupy(t, hs.URL, SearchRequest{Query: queries.Row(0), K: 5})}
	for i := 1; i < n; i++ {
		replies = append(replies, searchAsync(t, hs.URL, SearchRequest{Query: queries.Row(i), K: 5}))
	}
	h.waitQueued(t, n-1)

	// The pqserve SIGTERM sequence: drain, stop accepting and wait for
	// the handlers, then stop the engine. Shutdown cannot return while
	// the handlers are parked behind the held executor.
	s.BeginDrain()
	shutdownDone := make(chan error, 1)
	go func() {
		err := hs.Config.Shutdown(context.Background())
		s.Close()
		shutdownDone <- err
	}()
	h.release()
	for i, ch := range replies {
		if r := <-ch; r.status != http.StatusOK {
			t.Fatalf("in-flight request %d: status %d (%s), want 200", i, r.status, r.body)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// newHTTPServer wraps a Server in an httptest listener, registering
// cleanup for the listener only — tests that exercise shutdown own the
// Server.Close call.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs
}

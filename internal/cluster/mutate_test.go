package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan"
	"pqfastscan/internal/faultnet"
	"pqfastscan/internal/server"
)

// --- failure classification ---------------------------------------------

func TestAmbiguousOutcomeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"dial refused is unambiguous", &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}, false},
		{"read reset is ambiguous", &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}, true},
		{"unexpected EOF is ambiguous", io.ErrUnexpectedEOF, true},
		{"deadline in flight is ambiguous", context.DeadlineExceeded, true},
		{"http status answer is unambiguous", &httpStatusError{status: 500, body: "boom"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ambiguousOutcome(tc.err); got != tc.want {
				t.Fatalf("ambiguousOutcome(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// --- routed mutations ---------------------------------------------------

// newVectors returns an /add body of 16 vectors drawn from the corpus's
// distribution, so their nearest cells spread across all eight.
func newVectors() server.AddRequest {
	vecs := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 97}).Generate(16)
	add := server.AddRequest{Vectors: make([][]float32, vecs.Rows())}
	for i := range add.Vectors {
		add.Vectors[i] = vecs.Row(i)
	}
	return add
}

func TestAddAndDeleteThroughRouter(t *testing.T) {
	full, _ := fullIndex(t)
	s := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})
	router := newRouter(t, 8, [][]string{{s.URL}}, nil)
	handler := router.Handler()

	add := newVectors()
	raw, _ := json.Marshal(add)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/add status %d: %s", rec.Code, rec.Body.String())
	}
	var ar server.AddResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.IDs) != len(add.Vectors) {
		t.Fatalf("/add returned %d ids for %d vectors", len(ar.IDs), len(add.Vectors))
	}
	seen := make(map[int64]bool, len(ar.IDs))
	for _, id := range ar.IDs {
		if seen[id] {
			t.Fatalf("/add issued id %d twice: %v", id, ar.IDs)
		}
		seen[id] = true
	}

	// Delete one of the new ids: the router broadcasts to primaries and
	// reports success if any shard held it.
	del, _ := json.Marshal(server.DeleteRequest{ID: ar.IDs[0]})
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/delete", bytes.NewReader(del)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/delete status %d: %s", rec.Code, rec.Body.String())
	}

	// Deleting it again finds it nowhere: 404.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/delete", bytes.NewReader(del)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("second /delete status %d, want 404: %s", rec.Code, rec.Body.String())
	}
}

// TestAddRefusedByMultiShardFleet: every shard allocates ids on its
// own, so the 16 vectors of newVectors through a 2-shard fleet came
// back as [12000 12001 12002 12003 12004 12000 12005 12006 12001 …],
// ids 12000–12002 issued twice. Until the shards share one allocator
// the router refuses such an Add with 501 (ErrAddNeedsOneShard for a
// library caller), and no /add reaches a shard.
func TestAddRefusedByMultiShardFleet(t *testing.T) {
	full, _ := fullIndex(t)
	var arrived atomic.Int64
	router := newRouter(t, 8, [][]string{
		{countingShard(t, full, []int{0, 1, 2, 3}, &arrived)},
		{countingShard(t, full, []int{4, 5, 6, 7}, &arrived)},
	}, nil)

	add := newVectors()
	raw, _ := json.Marshal(add)
	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(raw)))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("/add through 2 shards: status %d, want 501: %s", rec.Code, rec.Body.String())
	}
	if _, err := router.Add(context.Background(), add.Vectors); !errors.Is(err, ErrAddNeedsOneShard) {
		t.Fatalf("Router.Add through 2 shards: %v, want ErrAddNeedsOneShard", err)
	}
	if n := arrived.Load(); n != 0 {
		t.Fatalf("%d sub-requests reached a shard, want 0", n)
	}
}

// TestMutationNotResentAfterAmbiguousFailure is the satellite
// regression test: a shard that accepts /add and then kills the
// connection mid-response leaves the outcome unknown. The router must
// attempt the mutation exactly once and answer with the typed
// "outcome unknown" error — never re-send it.
func TestMutationNotResentAfterAmbiguousFailure(t *testing.T) {
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
	t.Cleanup(func() { inner.Close() })

	var addAttempts atomic.Int64
	sabotaged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/add" {
			addAttempts.Add(1)
			// Read the request fully (it arrived), then sever the
			// connection before any response byte: a reset
			// mid-response, the canonically ambiguous failure.
			io.Copy(io.Discard, r.Body)
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("recorder does not support hijack")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(sabotaged.Close)

	router := newRouter(t, 8, [][]string{{sabotaged.URL}}, func(c *Config) {
		c.MaxAttempts = 5 // budget exists — the point is it must not be used
		c.sleep = func(ctx context.Context, d time.Duration) bool { return true }
		c.jitter = func(n int64) int64 { return 0 }
	})

	vec := make([]float32, router.Dim())
	_, err = router.Add(context.Background(), [][]float32{vec})
	if err == nil {
		t.Fatal("want error from sabotaged /add")
	}
	var ae *AmbiguousError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T (%v), want *AmbiguousError", err, err)
	}
	if got := addAttempts.Load(); got != 1 {
		t.Fatalf("shard saw %d /add attempts, want exactly 1 (ambiguous failures must not be re-sent)", got)
	}

	// The handler surfaces it as 502 with an explicit unknown outcome.
	raw, _ := json.Marshal(server.AddRequest{Vectors: [][]float32{vec}})
	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(raw)))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("/add status %d, want 502: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"outcome":"unknown"`) {
		t.Fatalf("/add error body must mark the outcome unknown: %s", rec.Body.String())
	}
	if router.metrics.ambiguous.Load() == 0 {
		t.Fatal("ambiguous-mutation counter did not move")
	}
}

// TestMutationRetriedAfterUnambiguousFailure: dial-class failures prove
// the request never reached the shard, so the mutation budget may
// re-send. faultnet's Drop fabricates exactly that.
func TestMutationRetriedAfterUnambiguousFailure(t *testing.T) {
	full, _ := fullIndex(t)
	s1 := shardServer(t, full, []int{0, 1, 2, 3, 4, 5, 6, 7})

	ft := faultnet.New(nil, 7, faultnet.Rule{Kind: faultnet.KindDrop, Target: "/add"})
	router := newRouter(t, 8, [][]string{{s1.URL}}, func(c *Config) {
		c.Client = &http.Client{Transport: ft}
		c.MaxAttempts = 3
		c.sleep = func(ctx context.Context, d time.Duration) bool { return true }
		c.jitter = func(n int64) int64 { return 0 }
	})

	vec := make([]float32, router.Dim())
	_, err := router.Add(context.Background(), [][]float32{vec})
	if err == nil {
		t.Fatal("want error while every /add is dropped")
	}
	var ae *AmbiguousError
	if errors.As(err, &ae) {
		t.Fatalf("drop-before-send must not classify as ambiguous: %v", err)
	}
	if got := ft.Stats().Drops; got != 3 {
		t.Fatalf("transport saw %d dropped attempts, want 3 (unambiguous failures are retried up to MaxAttempts)", got)
	}
}

package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"pqfastscan"
)

// waitReady polls /readyz until the deferred durable boot finishes.
func waitReady(t *testing.T, url string) {
	t.Helper()
	waitFor(t, "the durable boot", func() bool {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// TestWALRestartRecoversAckedMutations is the server-level crash
// contract: every mutation acknowledged over HTTP before the process
// goes away is served identically by the next process booted from the
// same WAL directory — including across the restart, with no /save ever
// called.
func TestWALRestartRecoversAckedMutations(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 61, 2000, 4000)
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 62})

	s1, err := New(Config{Index: idx, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	waitReady(t, hs1.URL)

	vecs := gen.Generate(6)
	req := AddRequest{Vectors: make([][]float32, vecs.Rows())}
	for i := range req.Vectors {
		req.Vectors[i] = vecs.Row(i)
	}
	var added AddResponse
	if status, body := postJSON(t, hs1.URL+"/add", req, &added); status != http.StatusOK {
		t.Fatalf("add: status %d (%s)", status, body)
	}
	if status, body := postJSON(t, hs1.URL+"/delete", DeleteRequest{ID: added.IDs[1]}, nil); status != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", status, body)
	}

	queries := gen.Generate(8)
	var before []SearchResponse
	for qi := 0; qi < queries.Rows(); qi++ {
		var resp SearchResponse
		if status, body := postJSON(t, hs1.URL+"/search",
			SearchRequest{Query: queries.Row(qi), K: 10, NProbe: 4}, &resp); status != http.StatusOK {
			t.Fatalf("search: status %d (%s)", status, body)
		}
		before = append(before, resp)
	}
	var st1 Stats
	if status := getJSON(t, hs1.URL+"/stats", &st1); status != http.StatusOK {
		t.Fatal("stats failed")
	}
	if st1.WAL == nil || st1.WAL.Records != 2 {
		t.Fatalf("stats wal section %+v, want 2 records (one add batch, one delete)", st1.WAL)
	}
	liveBefore := st1.Live
	hs1.Close()
	s1.Close()

	// Second process, same directory, no Index configured: boot must come
	// entirely from the recovered durable state.
	s2, err := New(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer func() { hs2.Close(); s2.Close() }()
	waitReady(t, hs2.URL)

	var st2 Stats
	if status := getJSON(t, hs2.URL+"/stats", &st2); status != http.StatusOK {
		t.Fatal("stats failed after restart")
	}
	if st2.Live != liveBefore {
		t.Fatalf("recovered live %d, want %d", st2.Live, liveBefore)
	}
	for qi := range before {
		var resp SearchResponse
		if status, body := postJSON(t, hs2.URL+"/search",
			SearchRequest{Query: queries.Row(qi), K: 10, NProbe: 4}, &resp); status != http.StatusOK {
			t.Fatalf("search after restart: status %d (%s)", status, body)
		}
		if len(resp.Results) != len(before[qi].Results) {
			t.Fatalf("query %d: %d results after restart, want %d", qi, len(resp.Results), len(before[qi].Results))
		}
		for i := range resp.Results {
			if resp.Results[i] != before[qi].Results[i] {
				t.Fatalf("query %d rank %d diverged across restart: %+v vs %+v",
					qi, i, resp.Results[i], before[qi].Results[i])
			}
		}
	}
	// The pre-restart delete stays deleted, and the id is not reissued.
	if status, _ := postJSON(t, hs2.URL+"/delete", DeleteRequest{ID: added.IDs[1]}, nil); status != http.StatusNotFound {
		t.Fatalf("deleted id resurrected across restart: delete status %d, want 404", status)
	}
	var again AddResponse
	one := AddRequest{Vectors: [][]float32{gen.Generate(1).Row(0)}}
	if status, body := postJSON(t, hs2.URL+"/add", one, &again); status != http.StatusOK {
		t.Fatalf("add after restart: status %d (%s)", status, body)
	}
	for _, old := range added.IDs {
		if again.IDs[0] == old {
			t.Fatalf("restart reissued id %d", old)
		}
	}
}

// TestWALSaveIsCheckpoint: parameterless /save on a durable server
// checkpoints — persists the snapshot, rotates the log (epoch advances)
// and truncates replayed records.
func TestWALSaveIsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 71, 2000, 3000)
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 72})
	s, err := New(Config{Index: idx, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() { hs.Close(); s.Close() }()
	waitReady(t, hs.URL)

	vecs := gen.Generate(4)
	req := AddRequest{Vectors: make([][]float32, vecs.Rows())}
	for i := range req.Vectors {
		req.Vectors[i] = vecs.Row(i)
	}
	if status, body := postJSON(t, hs.URL+"/add", req, nil); status != http.StatusOK {
		t.Fatalf("add: status %d (%s)", status, body)
	}

	var saved SaveResponse
	if status, body := postJSON(t, hs.URL+"/save", SaveRequest{}, &saved); status != http.StatusOK || !saved.Saved {
		t.Fatalf("save: status %d (%s)", status, body)
	}
	if !strings.HasPrefix(saved.Path, dir) {
		t.Fatalf("checkpoint path %q not under wal dir %q", saved.Path, dir)
	}
	var st Stats
	if status := getJSON(t, hs.URL+"/stats", &st); status != http.StatusOK {
		t.Fatal("stats failed")
	}
	if st.WAL == nil || st.WAL.Epoch != 2 {
		t.Fatalf("wal stats after checkpoint %+v, want epoch 2", st.WAL)
	}
	if st.Snapshot.Saves != 1 {
		t.Fatalf("saves counter %d, want 1", st.Snapshot.Saves)
	}
	// Only the fresh epoch-2 segment remains on disk.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments after checkpoint: %v (err %v), want exactly one", segs, err)
	}
}

// TestReadyzReportsRecovering: the recovery sub-state outranks warming
// on /readyz so probes can distinguish "replaying the log" (time scales
// with log length) from an index load.
func TestReadyzReportsRecovering(t *testing.T) {
	idx, _ := sharedIndex(t)
	s, hs := newTestServer(t, Config{Index: idx})
	s.recovering.Store(true)
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body[:n]), "recovering") {
		t.Fatalf("readyz while recovering: status %d body %q", resp.StatusCode, body[:n])
	}
	s.recovering.Store(false)
	if status := getJSON(t, hs.URL+"/readyz", nil); status != http.StatusOK {
		t.Fatalf("readyz after recovery: status %d", status)
	}
}

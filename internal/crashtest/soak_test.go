package crashtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"pqfastscan"
)

// TestKillNineSoak is the end-to-end durability acceptance test: a real
// pqserve process with a WAL is SIGKILLed mid-mutation-storm, restarted,
// and compared against an in-process oracle that applied exactly the
// acknowledged mutations and never crashed. Per cycle it asserts:
//
//   - every acknowledged mutation survives recovery (oracle equality),
//   - no unacknowledged mutation is partially applied (live counts can
//     only be "op fully applied" or "op absent"),
//   - post-recovery searches are bit-identical to the oracle's.
//
// Mutations are serialized so at most one operation is in flight at the
// kill; that op is indeterminate by definition (the client saw no ack)
// and is resolved against the recovered state, exactly as a client
// retrying idempotently would.
//
// Cycles default to 3 for local runs; CI sets CRASH_SOAK_CYCLES=25.
// CRASH_SOAK_RACE=1 builds the server with the race detector.
func TestKillNineSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-9 soak skipped in -short mode")
	}
	cycles := 3
	if v := os.Getenv("CRASH_SOAK_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad CRASH_SOAK_CYCLES %q", v)
		}
		cycles = n
	}

	const (
		synthetic  = 4000
		partitions = 4
		seed       = 42
	)
	bin := buildServer(t)
	walDir := t.TempDir()
	addr := freeAddr(t)
	client := &http.Client{Timeout: 15 * time.Second}

	// The oracle: the exact index pqserve -synthetic builds, held
	// in-process with no WAL and no crashes, fed only acked mutations.
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: seed})
	learnN := synthetic / 10
	if learnN < 1000 {
		learnN = 1000
	}
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = partitions
	opt.Seed = seed
	oracle, err := pqfastscan.Build(gen.Generate(learnN), gen.Generate(synthetic), opt)
	if err != nil {
		t.Fatal(err)
	}

	mutGen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 1000})
	queryGen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 2000})
	queries := queryGen.Generate(16)
	rng := rand.New(rand.NewSource(7))
	var liveIDs []int64 // acked adds not yet acked-deleted, kill targets for deletes

	proc := startServer(t, bin, addr, walDir, synthetic, partitions, seed)
	defer func() {
		if proc != nil && proc.Process != nil {
			_ = proc.Process.Kill()
			_, _ = proc.Process.Wait()
		}
	}()
	waitSoakReady(t, client, addr, 120*time.Second)

	acked, indeterminate := 0, 0
	var replayed int64 // log records the recoveries re-applied, one by one
	var replayMs float64
	for cycle := 0; cycle < cycles; cycle++ {
		// Storm: serialized mutations until the killer lands. The op that
		// errors is the (at most one) indeterminate operation.
		killAfter := time.Duration(100+rng.Intn(400)) * time.Millisecond
		killed := make(chan struct{})
		go func() {
			time.Sleep(killAfter)
			_ = proc.Process.Signal(syscall.SIGKILL)
			close(killed)
		}()

		var pendingAdd pqfastscan.Matrix // the indeterminate op, if an add
		havePendingAdd := false
		var pendingDel int64 = -1 // the indeterminate op, if a delete
		for {
			if rng.Intn(3) > 0 || len(liveIDs) == 0 { // 2:1 adds to deletes
				n := 1 + rng.Intn(3)
				vecs := mutGen.Generate(n)
				ids, err := httpAdd(client, addr, vecs)
				if err != nil {
					pendingAdd, havePendingAdd = vecs, true
					break
				}
				oids, oerr := oracle.AddBatch(vecs)
				if oerr != nil {
					t.Fatal(oerr)
				}
				for i := range ids {
					if ids[i] != oids[i] {
						t.Fatalf("cycle %d: id divergence: server %v, oracle %v", cycle, ids, oids)
					}
				}
				liveIDs = append(liveIDs, ids...)
				acked++
			} else {
				pick := rng.Intn(len(liveIDs))
				id := liveIDs[pick]
				if err := httpDelete(client, addr, id); err != nil {
					pendingDel = id
					break
				}
				if err := oracle.Delete(id); err != nil {
					t.Fatal(err)
				}
				liveIDs = append(liveIDs[:pick], liveIDs[pick+1:]...)
				acked++
			}
		}
		<-killed
		_, _ = proc.Process.Wait()

		// Recover and resolve the indeterminate op against the recovered
		// state: fully applied or fully absent, nothing in between.
		proc = startServer(t, bin, addr, walDir, synthetic, partitions, seed)
		waitSoakReady(t, client, addr, 120*time.Second)
		records, ms := queryReplay(t, client, addr)
		replayed += records
		replayMs += ms
		live := queryLiveCount(t, client, addr)
		switch {
		case havePendingAdd:
			switch live {
			case oracle.Live():
				// The add never became durable; its ids were never burned.
			case oracle.Live() + pendingAdd.Rows():
				// Acked by the disk but not by the socket: it is durable,
				// so the oracle applies it too.
				ids, err := oracle.AddBatch(pendingAdd)
				if err != nil {
					t.Fatal(err)
				}
				liveIDs = append(liveIDs, ids...)
			default:
				t.Fatalf("cycle %d: partial add: recovered live %d, want %d or %d",
					cycle, live, oracle.Live(), oracle.Live()+pendingAdd.Rows())
			}
			indeterminate++
		case pendingDel >= 0:
			switch live {
			case oracle.Live():
				// Not durable: the id is still live.
			case oracle.Live() - 1:
				if err := oracle.Delete(pendingDel); err != nil {
					t.Fatal(err)
				}
				for i, id := range liveIDs {
					if id == pendingDel {
						liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
						break
					}
				}
			default:
				t.Fatalf("cycle %d: impossible live count %d after indeterminate delete", cycle, live)
			}
			indeterminate++
		}
		if live := queryLiveCount(t, client, addr); live != oracle.Live() {
			t.Fatalf("cycle %d: recovered live %d, oracle %d — an acked mutation was lost or invented",
				cycle, live, oracle.Live())
		}

		// Bit-identical search vs the never-crashed oracle.
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			got, err := httpSearch(client, addr, q, 10, partitions)
			if err != nil {
				t.Fatalf("cycle %d: post-recovery search: %v", cycle, err)
			}
			want, err := oracle.Search(context.Background(), q, 10, pqfastscan.WithNProbe(partitions))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("cycle %d query %d: %d results, oracle %d", cycle, qi, len(got.Results), len(want.Results))
			}
			for i, w := range want.Results {
				if got.Results[i].ID != w.ID || got.Results[i].Distance != w.Distance {
					t.Fatalf("cycle %d query %d rank %d: recovered %+v, oracle %+v",
						cycle, qi, i, got.Results[i], w)
				}
			}
		}
	}
	t.Logf("soak: %d cycles, %d acked mutations all recovered, %d indeterminate ops resolved",
		cycles, acked, indeterminate)
	if replayMs > 0 {
		t.Logf("soak: recovery replayed %d wal records in %.1f ms: %.0f records/s", replayed, replayMs, float64(replayed)/replayMs*1000)
	}
}

// buildServer compiles cmd/pqserve into a temp dir (with -race when
// CRASH_SOAK_RACE=1) and returns the binary path.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pqserve")
	args := []string{"build"}
	if os.Getenv("CRASH_SOAK_RACE") == "1" {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "pqfastscan/cmd/pqserve")
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pqserve: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/crashtest -> repo root
}

// freeAddr grabs an ephemeral port and releases it for the server.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func startServer(t *testing.T, bin, addr, walDir string, synthetic, partitions, seed int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-synthetic", strconv.Itoa(synthetic),
		"-partitions", strconv.Itoa(partitions),
		"-seed", strconv.Itoa(seed),
		"-wal-dir", walDir,
		"-compact-interval", "0s",
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting pqserve: %v", err)
	}
	return cmd
}

func waitSoakReady(t *testing.T, client *http.Client, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("pqserve never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func httpAdd(client *http.Client, addr string, vecs pqfastscan.Matrix) ([]int64, error) {
	req := struct {
		Vectors [][]float32 `json:"vectors"`
	}{Vectors: make([][]float32, vecs.Rows())}
	for i := range req.Vectors {
		req.Vectors[i] = vecs.Row(i)
	}
	var resp struct {
		IDs []int64 `json:"ids"`
	}
	if err := postSoakJSON(client, addr, "/add", req, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

func httpDelete(client *http.Client, addr string, id int64) error {
	return postSoakJSON(client, addr, "/delete", map[string]int64{"id": id}, nil)
}

type soakSearchResponse struct {
	Results []struct {
		ID       int64   `json:"id"`
		Distance float32 `json:"distance"`
	} `json:"results"`
}

func httpSearch(client *http.Client, addr string, q []float32, k, nprobe int) (*soakSearchResponse, error) {
	req := map[string]any{"query": q, "k": k, "nprobe": nprobe}
	var resp soakSearchResponse
	if err := postSoakJSON(client, addr, "/search", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func postSoakJSON(client *http.Client, addr, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post("http://"+addr+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// queryReplay reads, from /stats, what the recovery that booted the
// server replayed: log records and milliseconds.
func queryReplay(t *testing.T, client *http.Client, addr string) (int64, float64) {
	t.Helper()
	resp, err := client.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		WAL struct {
			Replayed int64   `json:"replayed"`
			ReplayMs float64 `json:"replay_ms"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.WAL.Replayed, st.WAL.ReplayMs
}

func queryLiveCount(t *testing.T, client *http.Client, addr string) int {
	t.Helper()
	resp, err := client.Get("http://" + addr + "/healthz")
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

package index

import (
	"context"
	"fmt"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/scan/model"
	"pqfastscan/internal/topk"
	"pqfastscan/internal/vec"
)

// scanPaths lists every scan a query can be answered with — the
// kernel × backend axis of the index-level bit-identity matrices:
// naive, libpq, and fastpq on every backend this machine has.
func scanPaths() []Request {
	paths := []Request{{Kernel: KernelNaive}, {Kernel: KernelLibpq}}
	for _, be := range AvailableBackends() {
		paths = append(paths, Request{Kernel: KernelFastScan, Backend: be})
	}
	return paths
}

func sameAnswer(t *testing.T, tag string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d is %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}

// addTo adds n vectors, one Add each, that all route to cell c.
func addTo(t *testing.T, ix *Index, gen *dataset.Generator, c, n int) {
	t.Helper()
	for n > 0 {
		batch := gen.Generate(64)
		for i := 0; i < batch.Rows() && n > 0; i++ {
			if v := batch.Row(i); ix.RoutePartition(v) == c {
				if _, err := ix.Add(vec.Matrix{Data: v, Dim: batch.Dim}); err != nil {
					t.Fatal(err)
				}
				n--
			}
		}
	}
}

// TestCarriedMultiProbeProperty is the index-level statement of "one
// running top-k per query changes nothing but the work": over seeds,
// k, every nprobe above one, the mutation states (clean, tails
// non-empty, tombstoned, a tail one row short of the fold, just
// folded), RAM and paged storage, and every scan path, the sequential
// multi-probe answer equals the per-cell from-empty scans merged and
// the KernelNaive oracle, ids and distances; and an explicit cell list
// returns the same set whatever order it names the cells in.
func TestCarriedMultiProbeProperty(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1201, 1202} {
		ram, paged, queries := buildTwin(t, seed, 6000)
		if err := paged.AttachStore(t.TempDir(), 1<<30); err != nil {
			t.Fatal(err)
		}
		gen := dataset.NewGenerator(dataset.Config{Seed: seed + 50, Dim: 32})
		batch := gen.Generate(200)

		check := func(state string) {
			for _, ix := range []*Index{ram, paged} {
				s := ix.snap.Load()
				for _, k := range []int{1, 10, 100} {
					for nprobe := 2; nprobe <= ix.Partitions(); nprobe++ {
						for qi := 0; qi < queries.Rows(); qi++ {
							q := queries.Row(qi)
							tag := fmt.Sprintf("seed=%d %s paged=%v k=%d nprobe=%d q%d", seed, state, ix.Paged(), k, nprobe, qi)
							oracle, err := ix.Query(ctx, Request{Query: q, K: k, Kernel: KernelNaive, NProbe: nprobe})
							if err != nil {
								t.Fatalf("%s: oracle: %v", tag, err)
							}
							cells := oracle.Partitions
							reversed := make([]int, len(cells))
							for i, c := range cells {
								reversed[len(cells)-1-i] = c
							}
							rotated := append(append([]int(nil), cells[1:]...), cells[0])

							for _, path := range scanPaths() {
								ptag := fmt.Sprintf("%s %v/%v", tag, path.Kernel, path.Backend)
								req := path
								req.Query, req.K = q, k

								merged := topk.New(k)
								for _, c := range cells {
									one := req
									one.Cells = []int{c}
									res, err := ix.querySnap(ctx, s, one)
									if err != nil {
										t.Fatalf("%s: cell %d: %v", ptag, c, err)
									}
									for _, r := range res.Results {
										merged.Push(r.ID, r.Distance)
									}
								}
								sameAnswer(t, ptag+" per-cell merged vs oracle", merged.Results(), oracle.Results)

								req.NProbe = nprobe
								carried, err := ix.Query(ctx, req)
								if err != nil {
									t.Fatalf("%s: %v", ptag, err)
								}
								sameAnswer(t, ptag+" carried vs oracle", carried.Results, oracle.Results)

								req.NProbe = 0
								for _, order := range [][]int{reversed, rotated} {
									req.Cells = order
									listed, err := ix.Query(ctx, req)
									if err != nil {
										t.Fatalf("%s cells=%v: %v", ptag, order, err)
									}
									sameAnswer(t, fmt.Sprintf("%s cells=%v vs oracle", ptag, order), listed.Results, oracle.Results)
								}
							}
						}
					}
				}
			}
		}

		check("clean")

		for _, ix := range []*Index{ram, paged} {
			if _, err := ix.Add(batch); err != nil {
				t.Fatal(err)
			}
		}
		for _, ix := range []*Index{ram, paged} {
			for _, st := range ix.PartitionStats() {
				if st.Tail == 0 || st.Tail >= foldTail {
					t.Fatalf("paged=%v: partition %d has a tail of %d after a batch of %d", ix.Paged(), st.Partition, st.Tail, batch.Rows())
				}
			}
		}
		check("after-add")

		for _, ix := range []*Index{ram, paged} {
			for id := int64(0); id < int64(6000+batch.Rows()); id += 5 {
				if err := ix.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("tombstoned")

		for _, ix := range []*Index{ram, paged} {
			addTo(t, ix, gen, 1, foldTail-1-ix.PartitionStats()[1].Tail)
			if st := ix.PartitionStats()[1]; st.Tail != foldTail-1 {
				t.Fatalf("paged=%v: tail %d, want one short of %d", ix.Paged(), st.Tail, foldTail)
			}
		}
		check("one-short-of-fold")

		for _, ix := range []*Index{ram, paged} {
			before := ix.PartitionStats()[1]
			addTo(t, ix, gen, 1, 1)
			if st := ix.PartitionStats()[1]; st.Tail != 0 || st.Live != before.Live+1 || st.Dead != before.Dead {
				t.Fatalf("paged=%v: the fold left %+v after %+v", ix.Paged(), st, before)
			}
		}
		check("just-folded")
	}
}

// TestMultiProbeStatsAcrossEngines holds the serving engine to the
// model it is checked against, one level above internal/scan/model's
// own tests: a multi-probe query's merged scan.Stats, on every
// backend, equal the counters of the model's ScanInto chain over the
// same cells into one heap, and so do its results. A query path that
// restarted its threshold per cell would prune less and diverge.
func TestMultiProbeStatsAcrossEngines(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	ctx := context.Background()
	for _, k := range []int{1, 10, 100} {
		for nprobe := 2; nprobe <= ix.Partitions(); nprobe++ {
			for qi := 0; qi < queries.Rows(); qi++ {
				q := queries.Row(qi)
				heap := topk.New(k)
				var want scan.Stats
				for _, c := range RankCells(q, ix.Coarse)[:nprobe] {
					fs, err := ix.FastScanner(c)
					if err != nil {
						t.Fatal(err)
					}
					want.Merge(model.ScanInto(fs, ix.Tables(q, c), heap).Stats)
				}
				for _, be := range AvailableBackends() {
					served, err := ix.Query(ctx, Request{Query: q, K: k, Backend: be, NProbe: nprobe})
					if err != nil {
						t.Fatal(err)
					}
					if served.Stats != want {
						t.Fatalf("k=%d nprobe=%d q%d %v: served stats %+v, model chain %+v", k, nprobe, qi, be, served.Stats, want)
					}
					sameAnswer(t, fmt.Sprintf("k=%d nprobe=%d q%d %v", k, nprobe, qi, be), served.Results, heap.Results())
				}
			}
		}
	}
}

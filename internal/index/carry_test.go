package index

import (
	"context"
	"fmt"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/topk"
)

// fastScanPaths lists every way a multi-probe query can run PQ Fast
// Scan: both model widths and every native backend this machine has.
func fastScanPaths() []Request {
	paths := []Request{
		{Kernel: KernelFastScan, Engine: EngineModel},
		{Kernel: KernelFastScan256, Engine: EngineModel},
	}
	for _, be := range AvailableBackends() {
		paths = append(paths, Request{Kernel: KernelFastScan, Engine: EngineNative, Backend: be})
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

// TestCarriedMultiProbeProperty is the index-level statement of "one
// running top-k per query changes nothing but the work": over seeds,
// k, every nprobe above one, three mutation states, RAM and paged
// storage, and every Fast Scan path, the sequential multi-probe answer
// equals the per-cell from-empty scans merged and the KernelNaive model
// oracle, ids and distances; and an explicit cell list returns the same
// set whatever order it names the cells in.
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
							oracle, err := ix.Query(ctx, Request{Query: q, K: k, Kernel: KernelNaive, Engine: EngineModel, NProbe: nprobe})
							if err != nil {
								t.Fatalf("%s: oracle: %v", tag, err)
							}
							cells := oracle.Partitions
							reversed := make([]int, len(cells))
							for i, c := range cells {
								reversed[len(cells)-1-i] = c
							}
							rotated := append(append([]int(nil), cells[1:]...), cells[0])

							for _, path := range fastScanPaths() {
								ptag := fmt.Sprintf("%s %v/%v/%v", tag, path.Kernel, path.Engine, path.Backend)
								req := path
								req.Query, req.K = q, k

								merged := topk.New(k)
								for _, c := range cells {
									res, _, err := ix.searchPartition(s, req, c)
									if err != nil {
										t.Fatalf("%s: cell %d: %v", ptag, c, err)
									}
									for _, r := range res {
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
		check("after-add")

		for _, ix := range []*Index{ram, paged} {
			for id := int64(0); id < int64(6000+batch.Rows()); id += 5 {
				if err := ix.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("tombstoned")
	}
}

// TestMultiProbeStatsAcrossEngines pins that both engines carry: a
// sequential multi-probe query reports the same counters on the model
// engine and on every native backend, cell for cell merged. An engine
// that restarted its threshold per cell would prune less and diverge.
func TestMultiProbeStatsAcrossEngines(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	ctx := context.Background()
	for _, k := range []int{1, 10, 100} {
		for nprobe := 2; nprobe <= ix.Partitions(); nprobe++ {
			for qi := 0; qi < queries.Rows(); qi++ {
				model, err := ix.Query(ctx, Request{Query: queries.Row(qi), K: k, Kernel: KernelFastScan, Engine: EngineModel, NProbe: nprobe})
				if err != nil {
					t.Fatal(err)
				}
				independent, err := ix.Query(ctx, Request{Query: queries.Row(qi), K: k, Kernel: KernelFastScan, Engine: EngineModel, NProbe: nprobe, Parallel: true})
				if err != nil {
					t.Fatal(err)
				}
				if model.Stats.Pruned < independent.Stats.Pruned {
					t.Fatalf("k=%d nprobe=%d q%d: carried scan pruned %d, independent cells %d",
						k, nprobe, qi, model.Stats.Pruned, independent.Stats.Pruned)
				}
				for _, be := range AvailableBackends() {
					native, err := ix.Query(ctx, Request{Query: queries.Row(qi), K: k, Kernel: KernelFastScan, Engine: EngineNative, Backend: be, NProbe: nprobe})
					if err != nil {
						t.Fatal(err)
					}
					want := model.Stats
					want.Ops = native.Stats.Ops // only the model engine counts instructions
					if native.Stats != want {
						t.Fatalf("k=%d nprobe=%d q%d %v: native stats %+v, model %+v", k, nprobe, qi, be, native.Stats, model.Stats)
					}
					sameAnswer(t, fmt.Sprintf("k=%d nprobe=%d q%d %v", k, nprobe, qi, be), native.Results, model.Results)
				}
			}
		}
	}
}

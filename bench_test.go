package pqfastscan_test

// This file regenerates every table and figure of the paper's evaluation
// section as testing.B benchmarks, one per experiment. The experiment
// drivers live in internal/bench; cmd/pqbench runs the same drivers at
// larger scales. Each benchmark reports the experiment's table on first
// run (b.N iterations only re-time the scan work, not the output).
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The benchmarks share one lazily built environment (dataset + index) so
// the suite stays fast on a single core.

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"testing"

	"pqfastscan"
	"pqfastscan/internal/bench"
	"pqfastscan/internal/index"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/scan"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *bench.Env
	benchEnvErr  error
)

func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = bench.NewEnv(bench.SmallScale)
	})
	if benchEnvErr != nil {
		b.Fatalf("building benchmark environment: %v", benchEnvErr)
	}
	return benchEnv
}

// runExperiment executes a registered experiment driver once, emitting
// its table, and leaves kernel-level timing to BenchmarkKernels in
// internal/scan and internal/scan/model.
func runExperiment(b *testing.B, name string, out io.Writer) {
	b.Helper()
	exp, ok := bench.Find(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	var env *bench.Env
	if exp.NeedsEnv {
		env = sharedEnv(b)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := out
		if i > 0 {
			w = io.Discard // print the table once, time the rest
		}
		if err := exp.Run(env, w); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

func experimentBenchmark(name string) func(*testing.B) {
	return func(b *testing.B) {
		fmt.Fprintf(os.Stderr, "\n--- %s ---\n", name)
		runExperiment(b, name, os.Stderr)
	}
}

// One benchmark per paper table/figure (see DESIGN.md §4 for the mapping).
func BenchmarkTable1CacheLevels(b *testing.B)           { experimentBenchmark("table1")(b) }
func BenchmarkTable2InstructionProperties(b *testing.B) { experimentBenchmark("table2")(b) }
func BenchmarkFigure3ScanImplementations(b *testing.B)  { experimentBenchmark("fig3")(b) }
func BenchmarkTable3PartitionSizes(b *testing.B)        { experimentBenchmark("table3")(b) }
func BenchmarkFigure14ResponseTimes(b *testing.B)       { experimentBenchmark("fig14")(b) }
func BenchmarkFigure15PerfCounters(b *testing.B)        { experimentBenchmark("fig15")(b) }
func BenchmarkFigure16KeepParameter(b *testing.B)       { experimentBenchmark("fig16")(b) }
func BenchmarkFigure17QuantizationOnly(b *testing.B)    { experimentBenchmark("fig17")(b) }
func BenchmarkFigure18TopkParameter(b *testing.B)       { experimentBenchmark("fig18")(b) }
func BenchmarkFigure19PartitionSize(b *testing.B)       { experimentBenchmark("fig19")(b) }
func BenchmarkFigure20LargeScale(b *testing.B)          { experimentBenchmark("fig20")(b) }
func BenchmarkFigure11AssignmentAblation(b *testing.B)  { experimentBenchmark("fig11")(b) }
func BenchmarkGroupingComponentsAblation(b *testing.B)  { experimentBenchmark("grouping")(b) }
func BenchmarkMemoryFootprint(b *testing.B)             { experimentBenchmark("memory")(b) }
func BenchmarkMemoryBandwidth(b *testing.B)             { experimentBenchmark("bandwidth")(b) }
func BenchmarkRecall(b *testing.B)                      { experimentBenchmark("recall")(b) }
func BenchmarkAlgorithmSteps(b *testing.B)              { experimentBenchmark("steps")(b) }

// BenchmarkDistanceTables times Step 2 of Algorithm 1, the M×256
// distance tables of one probed cell, by its parts. The paper calls the
// step negligible against scans of 25 M-code partitions; on this
// repository's 100k-code cells the direct form was the largest single
// item of a scan-all query, which is why the residual table is factored
// (internal/index/tables.go). On the development host:
//
//   - direct: Equation 2 as written, PQ.DistanceTables on the residual —
//     2 048 sixteen-dimensional L2s, ≈ 33 µs. The reference form; no
//     query pays it.
//   - query_term: the once-per-query part, 2 048 inner products with
//     eight accumulators in flight, ≈ 15 µs and no allocation.
//   - cold: Index.Tables — query term plus one fused pass into two fresh
//     8 KiB arrays, ≈ 20 µs. What a caller outside the query path pays
//     per table; a query's first probe pays it less the allocations.
//   - next_probe: the fused pass alone, query term already built,
//     ≈ 2 µs and no allocation. What every later probe costs.
func BenchmarkDistanceTables(b *testing.B) {
	env := sharedEnv(b)
	ix := env.Index
	q := env.Queries.Row(0)
	n := ix.PQ.M * ix.PQ.KStar()
	b.Run("direct", func(b *testing.B) {
		residual := make([]float32, ix.Dim)
		for d, c := range ix.Coarse.Row(0) {
			residual[d] = q[d] - c
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.PQ.DistanceTables(residual)
		}
	})
	b.Run("query_term", func(b *testing.B) {
		qterm := make([]float32, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.QueryTerm(q, qterm)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Tables(q, 0)
		}
	})
	b.Run("next_probe", func(b *testing.B) {
		qterm, dst := make([]float32, n), make([]float32, n)
		ix.QueryTerm(q, qterm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.CellTables(q, i%ix.Partitions(), qterm, dst)
		}
	})
}

// BenchmarkCostModel times the analytic counter pricing itself.
func BenchmarkCostModel(b *testing.B) {
	ops := perf.OpCounts{ScalarLoadF: 8e5, ScalarLoad8: 8e5, ScalarALU: 1.2e6, ScalarBranch: 2e5}
	for i := 0; i < b.N; i++ {
		perf.Estimate(ops, perf.Haswell)
	}
}

var (
	nprobeOnce    sync.Once
	nprobeIndex   *pqfastscan.Index
	nprobeQueries pqfastscan.Matrix
	nprobeErr     error
)

// BenchmarkSearchNProbe times one native PQ Fast Scan query at k=10 over
// 1, 2 and all 4 partitions of a 100k-vector index — the standing
// benchmark's lib_scanall shape at a quarter of its size, set up in
// seconds, for paired parent/change runs while working on the
// multi-probe path. Queries are distinct and cycled, so no scan sees
// the previous one's tables. cand/query is the exact re-checks a query
// paid for (index.Query's Stats.Candidates): the count a carried
// threshold drives down, and it repeats exactly from run to run.
// blocks/query is the 16-vector blocks the kernel lower-bounded
// (Stats.Blocks), what a group pruned on its shared bound saves.
func BenchmarkSearchNProbe(b *testing.B) {
	nprobeOnce.Do(func() {
		gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 18})
		learn := gen.Generate(10000)
		base := gen.Generate(100000)
		nprobeQueries = gen.Generate(256)
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = 4
		opt.Seed = 18
		nprobeIndex, nprobeErr = pqfastscan.Build(learn, base, opt)
	})
	if nprobeErr != nil {
		b.Fatal(nprobeErr)
	}
	in, ctx := nprobeIndex.Internal(), context.Background()
	for _, nprobe := range []int{1, 2, 4} {
		b.Run(fmt.Sprint(nprobe), func(b *testing.B) {
			req := index.Request{K: 10, Kernel: index.KernelFastScan, NProbe: nprobe}
			run := func(i int) scan.Stats {
				req.Query = nprobeQueries.Row(i % nprobeQueries.Rows())
				resp, err := in.Query(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				return resp.Stats
			}
			// The counters are summed over whole passes of the pool (the
			// warm-up pass and every whole pass of the timed loop), so
			// they read the same at any b.N.
			pool := nprobeQueries.Rows()
			var total scan.Stats
			for i := 0; i < pool; i++ {
				total.Merge(run(i))
			}
			whole := b.N - b.N%pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := run(i)
				if i < whole {
					total.Merge(st)
				}
			}
			queries := float64(pool + whole)
			b.ReportMetric(float64(total.Candidates)/queries, "cand/query")
			b.ReportMetric(float64(total.Blocks)/queries, "blocks/query")
		})
	}
}

// BenchmarkServedScan times the standing benchmark's served query
// shape — lib_mixed's and serve_search's: one PQ Fast Scan query at
// k = 100, nprobe = 1, through index.Query — on sharedEnv's generated
// clustered corpus, cycling its 128-query pool. cand/query is the exact
// re-checks a query paid for (Stats.Candidates; it repeats exactly from
// run to run) and ns/cand the query's time per re-check. This is the
// served rate in a ≈ 15k-code cell: 645.1 re-checks a query under the
// exact bound (asm-avx512vbmi), ≈ 4 730 under the minimum tables
// (asm-avx2, swar). The uniform fixture of BenchmarkFastScan in
// internal/scan re-checks ≈ 600 in 100k codes, so a change to how fast
// the threshold tightens shows here, not there.
func BenchmarkServedScan(b *testing.B) {
	env, ctx := sharedEnv(b), context.Background()
	req := index.Request{K: 100, Kernel: index.KernelFastScan, NProbe: 1}
	run := func(i int) int {
		req.Query = env.Pool.Row(i % env.Pool.Rows())
		resp, err := env.Index.Query(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		return resp.Stats.Candidates
	}
	// cand/query is summed over whole passes of the pool (the warm-up
	// pass and every whole pass of the timed loop), so it reads the
	// same at any b.N.
	pool := env.Pool.Rows()
	candidates := 0
	for i := 0; i < pool; i++ {
		candidates += run(i) // also warms the per-searcher scratch
	}
	whole := b.N - b.N%pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := run(i)
		if i < whole {
			candidates += c
		}
	}
	perQuery := float64(candidates) / float64(pool+whole)
	b.ReportMetric(perQuery, "cand/query")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perQuery, "ns/cand")
}

var (
	writeOnce  sync.Once
	writeIndex *pqfastscan.Index
	writePool  pqfastscan.Matrix
	writeBase  []*scan.Partition
	writeErr   error
)

// writeEnv builds the write-path fixture: 100k vectors in ONE partition
// — the size of a partition of the standing benchmark's lib_mixed — its
// Fast Scan layout built by a first search, and a pool of vectors to
// add and to query with. writeBase keeps the built partition, which
// the benchmarks that add to the index leave untouched (partitions are
// copy-on-write).
func writeEnv(b *testing.B) (*pqfastscan.Index, pqfastscan.Matrix) {
	b.Helper()
	writeOnce.Do(func() {
		gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 24})
		learn := gen.Generate(10000)
		base := gen.Generate(100000)
		writePool = gen.Generate(4096)
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = 1
		opt.Seed = 24
		if writeIndex, writeErr = pqfastscan.Build(learn, base, opt); writeErr == nil {
			writeBase = writeIndex.Internal().Parts()
			_, writeErr = writeIndex.Search(context.Background(), writePool.Row(0), 100)
		}
	})
	if writeErr != nil {
		b.Fatal(writeErr)
	}
	return writeIndex, writePool
}

// BenchmarkAddSingle times one single-vector write into a 100k-code
// partition with a built Fast Scan layout. add is the facade's Add:
// encode and route, copy the tail, publish — and, every 1 024th, the
// fold (DESIGN.md §11), which -benchtime 10000x or more amortizes as a
// run of the service does. replay is what WAL recovery pays per record:
// ApplyAdd of rows encoded beforehand. B/op is the copy a write makes:
// half a full tail on average, where it was the partition and its
// layout twice over.
func BenchmarkAddSingle(b *testing.B) {
	idx, pool := writeEnv(b)
	b.Run("add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.Add(pool.Row(i % pool.Rows())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		in := idx.Internal()
		cells, codes, err := in.EncodeRoute(pool)
		if err != nil {
			b.Fatal(err)
		}
		m := len(codes) / len(cells)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := i % len(cells)
			if err := in.ApplyAdd(cells[r:r+1], []int64{in.AllocIDs(1)}, codes[r*m:(r+1)*m]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMixedCycle runs the standing benchmark's lib_mixed cycle —
// 8 Search k=100, 2 Add, 2 Delete of the oldest added id, in its order
// — one operation per iteration, against the same partition: the write
// path as a serving process meets it, each Search scanning the epoch
// the last Add left.
func BenchmarkMixedCycle(b *testing.B) {
	idx, pool := writeEnv(b)
	ctx := context.Background()
	const cycle = "SSSSASSSSADD"
	var added []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := pool.Row(i % pool.Rows())
		switch cycle[i%len(cycle)] {
		case 'S':
			if _, err := idx.Search(ctx, v, 100); err != nil {
				b.Fatal(err)
			}
		case 'A':
			id, err := idx.Add(v)
			if err != nil {
				b.Fatal(err)
			}
			added = append(added, id)
		case 'D':
			if err := idx.Delete(added[0]); err != nil {
				b.Fatal(err)
			}
			added = added[1:]
		}
	}
}

// BenchmarkFirstDelete times the first Delete into a fresh copy of the
// write-path fixture's 100k-row partition, its Fast Scan layout built:
// the Delete that walks every live row to build the Delete routing
// table. B/op is that table (8 bytes per id in 32 KiB arrays) plus one
// Delete. The copy is made off the clock.
func BenchmarkFirstDelete(b *testing.B) {
	idx, _ := writeEnv(b)
	in := idx.Internal()
	id := writeBase[0].ID(writeBase[0].N / 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := index.Restore(in.Dim, in.Coarse, in.PQ, writeBase, in.Options(), in.NextID())
		if _, err := ix.FastScanner(0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := ix.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeleteAtD times one Delete into the write-path fixture's
// 100k-row partition while it already holds D tombstones, its Fast Scan
// layout built, as a serving partition has it. A dead set that a Delete
// copied whole would make it O(D); a Delete copies one 4 096-bit chunk
// of the row bits and one of the lane bits, so the three sizes cost the
// same. Ids die in a fixed random order. Every 100
// timed Deletes the fixture is rebuilt off the clock, which keeps the
// dead count in [D, D+100) and makes the run several times longer than
// its timed part: run it with -benchtime 2000x or so.
func BenchmarkDeleteAtD(b *testing.B) {
	idx, _ := writeEnv(b)
	in := idx.Internal()
	ids := make([]int64, writeBase[0].N)
	for i, j := range rand.New(rand.NewPCG(26, 0)).Perm(len(ids)) {
		ids[i] = writeBase[0].ID(j)
	}
	const window = 100
	for _, c := range []struct {
		name string
		d    int
	}{{"100", 100}, {"1k", 1000}, {"10k", 10000}} {
		d := c.d
		b.Run(c.name, func(b *testing.B) {
			var ix *index.Index
			next := 0
			fixture := func() {
				b.StopTimer()
				ix = index.Restore(in.Dim, in.Coarse, in.PQ, writeBase, in.Options(), in.NextID())
				if _, err := ix.FastScanner(0); err != nil {
					b.Fatal(err)
				}
				for _, id := range ids[:d] {
					if err := ix.Delete(id); err != nil {
						b.Fatal(err)
					}
				}
				next = d
				b.StartTimer()
			}
			fixture()
			for i := 0; i < b.N; i++ {
				if next == d+window {
					fixture()
				}
				if err := ix.Delete(ids[next]); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}

// Command pqbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pqbench -list
//	pqbench -exp fig16
//	pqbench -exp all -scale large
//	pqbench -json > BENCH_prN.json
//
// Each experiment prints the rows or series of the corresponding table or
// figure of the paper's evaluation section (§5); EXPERIMENTS.md records a
// reference run next to the paper's numbers.
//
// -json switches to the wall-clock benchmark suite: every kernel on both
// execution engines (model and native) over several partition sizes —
// with one native Fast Scan row per available block-kernel backend
// (asm-avx2/asm-neon/swar), plus the host's backend and CPU-feature
// record — emitted as machine-readable JSON on stdout so the repository
// can record a BENCH_*.json trajectory across PRs.
//
// -serve switches to served-throughput load generation against the
// internal/server query service, reporting QPS and latency quantiles
// (p50/p90/p99) as JSON. By default it self-hosts a server over a
// synthetic index so the run is reproducible from one command; -serve-url
// points it at an external pqserve instead. Combining -json -serve emits
// one combined document with both the kernel numbers and the serving
// numbers (the BENCH_pr3.json baseline format):
//
//	pqbench -serve
//	pqbench -serve -serve-url http://localhost:8080
//	pqbench -json -serve > BENCH_prN.json
//
// -mixed runs the mixed read/write isolation benchmark: concurrent
// searchers over a quiescent index versus the same index absorbing a
// configurable write ratio (online Add/Delete plus background
// compaction), reporting read p50/p99 for both phases and their ratio —
// near 1 means mutations no longer stall readers. Combine with -json
// for the pqfastscan-bench/v3 document (the BENCH_pr4.json baseline):
//
//	pqbench -mixed
//	pqbench -mixed -mixed-write-ratio 0.2
//	pqbench -json -mixed > BENCH_prN.json
//
// -shards runs the cluster scaling benchmark (internal/cluster,
// DESIGN.md §13): one synthetic index split over 1, then 2, then 4
// in-process pqserve shards behind a scatter-gather router, the same
// load driven through the router at each shard count. Every layout is
// first verified to answer bit-identically to the single-node index;
// the report records the QPS/latency curve and the speedup over one
// shard. Combine with the other modes for the pqfastscan-bench/v5
// document (the BENCH_pr6.json baseline):
//
//	pqbench -serve -shards 1,2,4
//	pqbench -json -serve -shards 1,2,4 > BENCH_prN.json
//
// -coldstart runs the beyond-RAM serving benchmark (DESIGN.md §15): a
// synthetic index is sealed into disk extents, then for each pool
// capacity in -coldstart-pools (fractions of the on-disk footprint) a
// cold query pass — every partition faulting in from disk through the
// buffer pool — is measured against a warm pass over the same queries.
// The report records cold/warm QPS and latency quantiles, the pool's
// hit/miss/eviction counters, and whether the residency invariant
// (resident <= capacity + pinned) held throughout. Combine with -json
// for the pqfastscan-bench/v7 document (the BENCH_pr8.json baseline):
//
//	pqbench -coldstart
//	pqbench -coldstart -coldstart-pools 1.0,0.25,0.05
//	pqbench -json -coldstart > BENCH_prN.json
//
// -chaos runs the self-healing benchmark (DESIGN.md §17): a 2-shard ×
// 2-replica fleet behind a router whose HTTP client injects faults via
// internal/faultnet — a healthy window, then a fault window (one
// primary completely dark, the other resetting a fraction of its
// connections mid-flight), then the recovery after the faults lift.
// Every complete answer in every window is verified bit-identical to a
// single-node oracle; the report records goodput, p50/p99, the
// partial-answer rate per window, the time back to sustained full
// answers, and the immune-system counters (failovers, hedges, breaker
// fast-fails, quarantines, reinstatements). Combine with -json for the
// pqfastscan-bench/v9 document (the BENCH_pr10.json baseline):
//
//	pqbench -chaos
//	pqbench -chaos -chaos-reset-p 0.6
//	pqbench -json -chaos > BENCH_prN.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pqfastscan/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqbench: ")
	var (
		expName  = flag.String("exp", "all", "experiment name(s), comma-separated (see -list), or \"all\"")
		scale    = flag.String("scale", "default", "environment scale: small, default or large")
		list     = flag.Bool("list", false, "list available experiments and exit")
		seed     = flag.Uint64("seed", 42, "dataset and training seed")
		baseN    = flag.Int("n", 0, "override base set size")
		jsonOut  = flag.Bool("json", false, "run the wall-clock kernel benchmarks (both engines) and emit JSON on stdout")
		jsonK    = flag.Int("k", 100, "top-k for -json and -serve benchmarks")
		jsonSize = flag.String("sizes", "10000,100000", "comma-separated partition sizes for -json benchmarks")

		serveOut  = flag.Bool("serve", false, "run served-throughput load generation (QPS/p50/p99 JSON); with -json, emit one combined report")
		serveURL  = flag.String("serve-url", "", "drive an external pqserve at this URL instead of self-hosting")
		serveN    = flag.Int("serve-n", 100000, "database size for the self-hosted serving benchmark")
		serveDur  = flag.Duration("serve-duration", 5*time.Second, "measurement window for -serve")
		serveConc = flag.Int("serve-conc", 16, "concurrent load-generator clients for -serve")
		serveNP   = flag.Int("serve-nprobe", 1, "nprobe per served query")

		mixedOut     = flag.Bool("mixed", false, "run the mixed read/write isolation benchmark (read p50/p99 with and without concurrent writers); with -json, emit one combined report")
		mixedN       = flag.Int("mixed-n", 100000, "database size for the -mixed benchmark")
		mixedReaders = flag.Int("mixed-readers", 0, "concurrent searcher goroutines for -mixed (0 = 2×GOMAXPROCS)")
		mixedRatio   = flag.Float64("mixed-write-ratio", 0.05, "target write fraction of total operations during the mutating phase")
		mixedDur     = flag.Duration("mixed-duration", 3*time.Second, "per-phase measurement window for -mixed")

		durOut     = flag.Bool("durability", false, "run the durability benchmark (acked-write latency per WAL sync discipline, read-path tax, recovery replay rate); with -json, emit one combined report")
		durN       = flag.Int("durability-n", 20000, "database size for the -durability benchmark")
		durOps     = flag.Int("durability-ops", 2000, "acked mutations per sync discipline for -durability")
		durWriters = flag.Int("durability-writers", 4, "concurrent writer goroutines for -durability")

		coldOut     = flag.Bool("coldstart", false, "run the beyond-RAM cold-start benchmark (disk extents behind the buffer pool: cold vs warm QPS/p99 over a pool-capacity sweep); with -json, emit one combined report")
		coldN       = flag.Int("coldstart-n", 20000, "database size for the -coldstart benchmark")
		coldParts   = flag.Int("coldstart-partitions", 8, "IVF cells for the -coldstart benchmark")
		coldQueries = flag.Int("coldstart-queries", 64, "queries per cold/warm pass for -coldstart")
		coldPools   = flag.String("coldstart-pools", "1.0,0.5,0.1", "comma-separated pool capacities for -coldstart, as fractions of the extent footprint")

		chaosOut    = flag.Bool("chaos", false, "run the self-healing chaos benchmark (goodput/p99/partial rate under injected faults, recovery time after they lift); with -json, emit one combined report")
		chaosN      = flag.Int("chaos-n", 100000, "database size for the -chaos benchmark")
		chaosWindow = flag.Duration("chaos-window", 3*time.Second, "length of the healthy and fault windows for -chaos")
		chaosConc   = flag.Int("chaos-conc", 8, "concurrent load-generator clients for -chaos")
		chaosResetP = flag.Float64("chaos-reset-p", 0.4, "mid-flight connection-reset probability injected on one primary during the fault window")

		shardsFlag = flag.String("shards", "", "comma-separated shard counts for the cluster scaling benchmark, e.g. \"1,2,4\"; with -json/-serve/-mixed, emit one combined report")
		shardN     = flag.Int("shard-n", 100000, "database size for the -shards benchmark")
		shardParts = flag.Int("shard-partitions", 8, "IVF cells for the -shards benchmark")
		shardDur   = flag.Duration("shard-duration", 3*time.Second, "measurement window per shard count for -shards")
		shardConc  = flag.Int("shard-conc", 16, "concurrent load-generator clients for -shards")
		shardNP    = flag.Int("shard-nprobe", 2, "nprobe per routed query for -shards")
	)
	flag.Parse()

	shardCounts, err := parseShardCounts(*shardsFlag)
	if err != nil {
		log.Fatal(err)
	}
	poolFracs, err := parsePoolFractions(*coldPools)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut || *serveOut || *mixedOut || *durOut || *coldOut || *chaosOut || len(shardCounts) > 0 {
		runMachineReadable(*jsonOut, *serveOut, *mixedOut, *durOut, *coldOut, *chaosOut, shardCounts, *seed, *jsonSize, *jsonK,
			bench.ServeConfig{
				URL:         *serveURL,
				BaseN:       *serveN,
				Seed:        *seed,
				K:           *jsonK,
				NProbe:      *serveNP,
				Concurrency: *serveConc,
				Duration:    *serveDur,
			},
			bench.MixedConfig{
				BaseN:      *mixedN,
				Seed:       *seed,
				K:          *jsonK,
				Readers:    *mixedReaders,
				WriteRatio: *mixedRatio,
				Duration:   *mixedDur,
			},
			bench.DurabilityConfig{
				BaseN:   *durN,
				Seed:    *seed,
				Ops:     *durOps,
				Writers: *durWriters,
			},
			bench.ClusterConfig{
				BaseN:       *shardN,
				Partitions:  *shardParts,
				Seed:        *seed,
				K:           *jsonK,
				NProbe:      *shardNP,
				Concurrency: *shardConc,
				Duration:    *shardDur,
				Shards:      shardCounts,
			},
			bench.ColdstartConfig{
				BaseN:      *coldN,
				Partitions: *coldParts,
				Seed:       *seed,
				K:          *jsonK,
				Queries:    *coldQueries,
				Fractions:  poolFracs,
			},
			bench.ChaosConfig{
				BaseN:       *chaosN,
				Seed:        *seed,
				K:           *jsonK,
				Concurrency: *chaosConc,
				Window:      *chaosWindow,
				ResetP:      *chaosResetP,
			})
		return
	}

	if *list {
		for _, e := range bench.Registry {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.SmallScale
	case "default":
		s = bench.DefaultScale
	case "large":
		s = bench.LargeScale
	default:
		log.Fatalf("unknown scale %q (want small, default or large)", *scale)
	}
	s.Seed = *seed
	if *baseN > 0 {
		s.BaseN = *baseN
	}

	var selected []bench.Experiment
	if *expName == "all" {
		selected = bench.Registry
	} else {
		for _, name := range strings.Split(*expName, ",") {
			e, ok := bench.Find(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown experiment %q; run with -list", name)
			}
			selected = append(selected, e)
		}
	}

	needEnv := false
	for _, e := range selected {
		needEnv = needEnv || e.NeedsEnv
	}
	var env *bench.Env
	if needEnv {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "building %s environment (base=%d, partitions=%d)...\n",
			s.Name, s.BaseN, s.Partitions)
		var err error
		env, err = bench.NewEnv(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "environment ready in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	for _, e := range selected {
		fmt.Printf("=== %s — %s ===\n", e.Name, e.Title)
		if err := e.Run(env, os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Println()
	}
}

// parsePoolFractions parses the -coldstart-pools flag: a comma-separated
// list of pool capacities as fractions of the extent footprint.
func parsePoolFractions(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 || v > 1 {
			return nil, fmt.Errorf("bad -coldstart-pools entry %q (want fractions in (0,1], e.g. \"1.0,0.5,0.1\")", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseShardCounts parses the -shards flag: a comma-separated list of
// shard counts to measure. Empty disables the cluster benchmark.
func parseShardCounts(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive shard counts, e.g. \"1,2,4\")", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// runMachineReadable dispatches the -json / -serve / -mixed /
// -durability / -shards / -coldstart / -chaos modes: a single report
// alone, or the combined pqfastscan-bench/v9 document when several are
// requested (the BENCH_pr10.json baseline format: kernels per backend +
// serving + durability + cluster scaling + the beyond-RAM cold-start
// sweep + the self-healing chaos run).
func runMachineReadable(kernels, serve, mixed, durability, coldstart, chaos bool, shardCounts []int, seed uint64, sizeList string, k int, serveCfg bench.ServeConfig, mixedCfg bench.MixedConfig, durCfg bench.DurabilityConfig, clusterCfg bench.ClusterConfig, coldCfg bench.ColdstartConfig, chaosCfg bench.ChaosConfig) {
	var sizes []int
	if kernels {
		for _, s := range strings.Split(sizeList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				log.Fatalf("bad -sizes entry %q", s)
			}
			sizes = append(sizes, v)
		}
	}
	shards := len(shardCounts) > 0
	single := 0
	for _, on := range []bool{kernels, serve, mixed, durability, shards, coldstart, chaos} {
		if on {
			single++
		}
	}
	if single == 1 {
		var err error
		switch {
		case serve:
			err = bench.RunServe(os.Stdout, serveCfg)
		case mixed:
			err = bench.RunMixed(os.Stdout, mixedCfg)
		case durability:
			err = bench.RunDurability(os.Stdout, durCfg)
		case shards:
			err = bench.RunCluster(os.Stdout, clusterCfg)
		case coldstart:
			err = bench.RunColdstart(os.Stdout, coldCfg)
		case chaos:
			err = bench.RunChaos(os.Stdout, chaosCfg)
		default:
			err = bench.RunWallClock(os.Stdout, seed, sizes, k)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	// v9: adds the self-healing chaos section; v8 the planner section
	// (no longer produced); v7 the coldstart section and the mem record in the
	// kernels header; v6 the durability section; v5 the cluster scaling
	// section; v4's kernels section carries the block-kernel backend
	// record (active/available backends, CPU features, per-backend
	// native Fast Scan rows) and the mixed section names its backend.
	combined := bench.CombinedReport{Schema: "pqfastscan-bench/v9"}
	if kernels {
		fmt.Fprintln(os.Stderr, "running wall-clock kernel benchmarks...")
		kr, err := bench.MeasureWallClock(seed, sizes, k)
		if err != nil {
			log.Fatal(err)
		}
		combined.Kernels = kr
	}
	if serve {
		fmt.Fprintln(os.Stderr, "running served-throughput benchmark...")
		sr, err := bench.MeasureServe(serveCfg)
		if err != nil {
			log.Fatal(err)
		}
		combined.Serve = sr
	}
	if mixed {
		fmt.Fprintln(os.Stderr, "running mixed read/write benchmark...")
		mr, err := bench.MeasureMixed(mixedCfg)
		if err != nil {
			log.Fatal(err)
		}
		combined.Mixed = mr
	}
	if durability {
		fmt.Fprintln(os.Stderr, "running durability benchmark...")
		dr, err := bench.MeasureDurability(durCfg)
		if err != nil {
			log.Fatal(err)
		}
		combined.Durability = dr
	}
	if shards {
		fmt.Fprintln(os.Stderr, "running cluster scaling benchmark...")
		cr, err := bench.MeasureCluster(clusterCfg)
		if err != nil {
			log.Fatal(err)
		}
		combined.Cluster = cr
	}
	if coldstart {
		fmt.Fprintln(os.Stderr, "running beyond-RAM cold-start benchmark...")
		cr, err := bench.MeasureColdstart(coldCfg)
		if err != nil {
			log.Fatal(err)
		}
		combined.Coldstart = cr
	}
	if chaos {
		fmt.Fprintln(os.Stderr, "running self-healing chaos benchmark...")
		cr, err := bench.MeasureChaos(chaosCfg)
		if err != nil {
			log.Fatal(err)
		}
		combined.Chaos = cr
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(combined); err != nil {
		log.Fatal(err)
	}
}

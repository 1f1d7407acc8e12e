package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/scan/model"
)

// Experiment is one registered table/figure driver.
type Experiment struct {
	Name     string
	Title    string
	NeedsEnv bool
	Run      func(env *Env, w io.Writer) error
}

// Registry lists every experiment in the paper's order.
var Registry = []Experiment{
	{"table1", "Table 1: cache levels and PQ distance table residency", false, func(_ *Env, w io.Writer) error { return Table1(w) }},
	{"table2", "Table 2: gather vs pshufb instruction properties", false, func(_ *Env, w io.Writer) error { return Table2(w) }},
	{"fig3", "Figure 3: PQ Scan implementations (naive/libpq/avx/gather)", true, Figure3},
	{"table3", "Table 3: partition sizes and query routing", true, Table3},
	{"fig14", "Figure 14 / Table 4: response time distribution", true, Figure14},
	{"fig15", "Figure 15: performance counters libpq vs fastpq", true, Figure15},
	{"fig16", "Figure 16: impact of keep parameter", true, Figure16},
	{"fig17", "Figure 17: pruning power of quantization alone", true, Figure17},
	{"fig18", "Figure 18: impact of topk parameter", true, Figure18},
	{"fig19", "Figure 19: impact of partition size", true, Figure19},
	{"fig20", "Figure 20: large-scale run and CPU architectures", true, Figure20},
	{"fig11", "Figure 11 ablation: centroid index assignment", true, Figure11Ablation},
	{"grouping", "§4.2 ablation: grouping depth c", true, GroupingAblation},
	{"memory", "§4.2: packed layout memory footprint", true, MemoryFootprint},
}

// Find returns the experiment registered under name.
func Find(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Table1 reproduces the cache-level analysis: the distance tables of each
// 64-bit PQ configuration land in the cache level that fits them,
// determining mem2 access latency.
func Table1(w io.Writer) error {
	arch := perf.Haswell
	tw := newTab(w)
	fmt.Fprintf(tw, "config\ttables bytes\tcache level\tlatency (cycles)\tmem1+mem2 loads/vector\tmodeled cycles/vec\tscan speed [Mvecs/s]\n")
	for _, cfg := range []quantizer.Config{quantizer.PQ16x4, quantizer.PQ8x8, quantizer.PQ4x16} {
		level, lat := perf.CacheLevel(arch, cfg.TableBytes())
		cycles := perf.ConfigScanCycles(cfg.M, cfg.KStar(), arch)
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.0f\t%d\t%.1f\t%.0f\n",
			cfg, cfg.TableBytes(), level, lat, 2*cfg.M, cycles,
			arch.FreqGHz*1e3/cycles)
	}
	fmt.Fprintf(tw, "\nL1=%d KiB (lat %.0f), L2=%d KiB (lat %.0f), L3=%d KiB (lat %.0f) [%s]\n",
		arch.L1KiB, arch.L1Latency, arch.L2KiB, arch.L2Latency, arch.L3KiB, arch.L3Latency, arch.Name)
	return tw.Flush()
}

// Table2 prints the modeled instruction properties the paper measures on
// Haswell.
func Table2(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "inst\tlat\tthrough\tuops\t# elem\telem size\n")
	g, p := perf.GatherCost(), perf.PshufbCost()
	fmt.Fprintf(tw, "gather\t%.0f\t%.0f\t%.0f\t%d\t%d bits\n", g.Latency, g.RecipTP, g.Uops, 8, 32)
	fmt.Fprintf(tw, "pshufb\t%.0f\t%.1f\t%.0f\t%d\t%d bits\n", p.Latency, p.RecipTP, p.Uops, 16, 8)
	return tw.Flush()
}

// largestPartition returns the index of the biggest IVF cell (the paper's
// "partition 0" is its largest, 25 M vectors).
func (e *Env) largestPartition() int {
	best, bestN := 0, -1
	for i, p := range e.Index.Parts() {
		if p.N > bestN {
			best, bestN = i, p.N
		}
	}
	return best
}

// TablesFor computes distance tables of query qi against an arbitrary
// partition (not necessarily the routed one).
func (e *Env) TablesFor(qi, part int) quantizer.Tables {
	if e.route[qi] == part {
		return e.tables[qi]
	}
	return e.Index.Tables(e.Queries.Row(qi), part)
}

// runOn executes kernel over an explicit partition with query qi's tables.
func (e *Env) runOn(kernel model.Kernel, part, qi, k int, fsOpt scan.FastScanOptions) (ScanOutcome, error) {
	return e.scan(kernel, part, e.TablesFor(qi, part), k, fsOpt)
}

// runPool executes kernel for pool query poolQi over its routed
// partition.
func (e *Env) runPool(kernel model.Kernel, poolQi, k int, fsOpt scan.FastScanOptions) (ScanOutcome, int, error) {
	part, t := e.PoolTables(poolQi)
	out, err := e.scan(kernel, part, t, k, fsOpt)
	return out, part, err
}

// partitionPoolQueries returns the pool queries routed to part, falling
// back to the shared query set (scanned cross-partition) when the pool
// holds none — partitions tiny enough to attract no queries.
func (e *Env) partitionPoolQueries(part, max int) []int {
	qs := e.PoolQueriesFor(part, max)
	return qs
}

// perVector normalizes counters by the scanned vector count.
func perVector(c perf.Counters, n int) perf.Counters {
	f := 1 / float64(n)
	return perf.Counters{
		Cycles:       c.Cycles * f,
		Instructions: c.Instructions * f,
		Uops:         c.Uops * f,
		L1Loads:      c.L1Loads * f,
		Bottleneck:   c.Bottleneck,
	}
}

// Figure3 compares the four PQ Scan implementations on the largest
// partition: modeled scan time on the Haswell profile plus per-vector
// performance counters, the paper's Figure 3 panels.
func Figure3(env *Env, w io.Writer) error {
	part := env.largestPartition()
	n := env.Index.Parts()[part].N
	arch := perf.Haswell
	pool := env.partitionPoolQueries(part, 8)
	if len(pool) == 0 {
		pool = []int{0}
	}
	nq := len(pool)
	tw := newTab(w)
	fmt.Fprintf(tw, "impl\tscan time [ms, modeled %s]\tcycles/vec\tinstr/vec\tuops/vec\tL1 loads/vec\tIPC\tbottleneck\n", arch.Name)
	for _, kern := range []model.Kernel{model.KernelNaive, model.KernelLibpq, model.KernelAVX, model.KernelGather} {
		var sum perf.Counters
		for _, qi := range pool {
			out, _, err := env.runPool(kern, qi, 100, PaperFastOpts())
			if err != nil {
				return err
			}
			c := out.Stats.Counters(arch)
			sum.Cycles += c.Cycles
			sum.Instructions += c.Instructions
			sum.Uops += c.Uops
			sum.L1Loads += c.L1Loads
			sum.Bottleneck = c.Bottleneck
		}
		avg := perVector(sum, nq*n)
		ms := avg.Cycles * float64(n) / (arch.FreqGHz * 1e9) * 1e3
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%s\n",
			kern, ms, avg.Cycles, avg.Instructions, avg.Uops, avg.L1Loads, avg.IPC(), avg.Bottleneck)
	}
	fmt.Fprintf(tw, "\npartition %d, %d vectors, %d queries\n", part, n, nq)
	return tw.Flush()
}

// Table3 prints the per-partition sizes and how many benchmark queries
// route to each.
func Table3(env *Env, w io.Writer) error {
	sizes := env.Index.PartitionSizes()
	counts := make([]int, len(sizes))
	for _, p := range env.route {
		counts[p]++
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "partition\t")
	for i := range sizes {
		fmt.Fprintf(tw, "%d\t", i)
	}
	fmt.Fprintf(tw, "\n# vectors\t")
	for _, s := range sizes {
		fmt.Fprintf(tw, "%d\t", s)
	}
	fmt.Fprintf(tw, "\n# queries\t")
	for _, c := range counts {
		fmt.Fprintf(tw, "%d\t", c)
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Figure14 reproduces the response-time distribution study (Figure 14 and
// Table 4): libpq response time is nearly constant across queries while
// fastpq response time varies with the achievable pruning, with a 4-6x
// median speedup at paper scale.
func Figure14(env *Env, w io.Writer) error {
	part := env.largestPartition()
	n := env.Index.Parts()[part].N
	arch := perf.Haswell
	pool := env.partitionPoolQueries(part, 16)
	if len(pool) == 0 {
		pool = []int{0}
	}
	collect := func(kern model.Kernel, fsOpt scan.FastScanOptions) ([]float64, error) {
		var times []float64
		for _, qi := range pool {
			out, _, err := env.runPool(kern, qi, 100, fsOpt)
			if err != nil {
				return nil, err
			}
			times = append(times, out.Stats.Counters(arch).Seconds(arch)*1e3)
		}
		sort.Float64s(times)
		return times, nil
	}
	libpq, err := collect(model.KernelLibpq, PaperFastOpts())
	if err != nil {
		return err
	}
	fastOpt := HeadlineFastOpts(n, 100)
	fast, err := collect(model.KernelFastScan, fastOpt)
	if err != nil {
		return err
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "\tMean\t25%%\tMedian\t75%%\t95%%\n")
	fmt.Fprintf(tw, "PQ Scan (libpq) [ms]\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
		mean(libpq), quantile(libpq, 0.25), quantile(libpq, 0.5), quantile(libpq, 0.75), quantile(libpq, 0.95))
	fmt.Fprintf(tw, "PQ Fast Scan [ms]\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
		mean(fast), quantile(fast, 0.25), quantile(fast, 0.5), quantile(fast, 0.75), quantile(fast, 0.95))
	fmt.Fprintf(tw, "Speedup\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
		mean(libpq)/mean(fast),
		quantile(libpq, 0.25)/quantile(fast, 0.25),
		quantile(libpq, 0.5)/quantile(fast, 0.5),
		quantile(libpq, 0.75)/quantile(fast, 0.75),
		quantile(libpq, 0.95)/quantile(fast, 0.95))
	fmt.Fprintf(tw, "\npartition %d (%d vectors), keep=%.1f%% (scaled, see HeadlineFastOpts), topk=100, modeled on %s\n",
		part, n, 100*fastOpt.Keep, arch.Name)
	return tw.Flush()
}

// Figure15 compares the per-vector performance counters of libpq and
// fastpq (the paper's 9 -> 1.3 L1 loads and 34 -> 3.7 instructions).
func Figure15(env *Env, w io.Writer) error {
	part := env.largestPartition()
	n := env.Index.Parts()[part].N
	arch := perf.Haswell
	tw := newTab(w)
	fmt.Fprintf(tw, "impl\tcycles/vec\tinstr/vec\tL1 loads/vec\tIPC\tpruned %%\n")
	for _, row := range []struct {
		name string
		kern model.Kernel
		opt  scan.FastScanOptions
	}{
		{"libpq", model.KernelLibpq, PaperFastOpts()},
		{"fastpq", model.KernelFastScan, HeadlineFastOpts(n, 100)},
	} {
		var sum perf.Counters
		pruned, lbs := 0, 0
		pool := env.partitionPoolQueries(part, 16)
		if len(pool) == 0 {
			pool = []int{0}
		}
		for _, qi := range pool {
			out, _, err := env.runPool(row.kern, qi, 100, row.opt)
			if err != nil {
				return err
			}
			c := out.Stats.Counters(arch)
			sum.Cycles += c.Cycles
			sum.Instructions += c.Instructions
			sum.Uops += c.Uops
			sum.L1Loads += c.L1Loads
			pruned += out.Stats.Pruned
			lbs += out.Stats.LowerBounds
		}
		avg := perVector(sum, len(env.partitionPoolQueries(part, 16))*n)
		prunedPct := 0.0
		if lbs > 0 {
			prunedPct = 100 * float64(pruned) / float64(lbs)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.2f\t%.2f\t%.1f\n",
			row.name, avg.Cycles, avg.Instructions, avg.L1Loads, avg.IPC(), prunedPct)
	}
	return tw.Flush()
}

// speedMvecs converts per-scan counters into the paper's scan-speed axis
// (millions of vectors per second) on arch.
func speedMvecs(c perf.Counters, n int, arch perf.Arch) float64 {
	sec := c.Seconds(arch)
	if sec == 0 {
		return 0
	}
	return float64(n) / sec / 1e6
}

// Figure16 sweeps the keep parameter for topk in {100, 1000}: pruning
// power rises with keep while scan speed collapses once the slow
// keep-phase dominates.
func Figure16(env *Env, w io.Writer) error {
	keeps := []float64{0.001, 0.0025, 0.005, 0.01, 0.02, 0.05, 0.1}
	tw := newTab(w)
	fmt.Fprintf(tw, "topk\tkeep %%\tpruned %% (fastpq)\tscan speed [Mvecs/s fastpq]\tscan speed [Mvecs/s libpq]\n")
	arch := perf.Haswell
	for _, topk := range []int{100, 1000} {
		for _, keep := range keeps {
			opt := PaperFastOpts()
			opt.Keep = keep
			var pruned, lbs int
			var fastSpeed, libpqSpeed float64
			for qi := 0; qi < env.Scale.QueryN; qi++ {
				part, _ := env.QueryTables(qi)
				n := env.Index.Parts()[part].N
				out, err := env.runOn(model.KernelFastScan, part, qi, topk, opt)
				if err != nil {
					return err
				}
				pruned += out.Stats.Pruned
				lbs += out.Stats.LowerBounds
				fastSpeed += speedMvecs(out.Stats.Counters(arch), n, arch)
				lp, err := env.runOn(model.KernelLibpq, part, qi, topk, opt)
				if err != nil {
					return err
				}
				libpqSpeed += speedMvecs(lp.Stats.Counters(arch), n, arch)
			}
			nq := float64(env.Scale.QueryN)
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.0f\t%.0f\n",
				topk, keep*100, 100*float64(pruned)/float64(lbs), fastSpeed/nq, libpqSpeed/nq)
		}
	}
	return tw.Flush()
}

// Figure17 isolates the pruning power of distance quantization alone
// (256-entry 8-bit tables, no grouping, no minimum tables).
func Figure17(env *Env, w io.Writer) error {
	keeps := []float64{0.001, 0.0025, 0.005, 0.01, 0.02, 0.05, 0.1}
	tw := newTab(w)
	fmt.Fprintf(tw, "topk\tkeep %%\tpruned %% (quantization only)\n")
	for _, topk := range []int{100, 1000} {
		for _, keep := range keeps {
			opt := PaperFastOpts()
			opt.Keep = keep
			var pruned, lbs int
			for qi := 0; qi < env.Scale.QueryN; qi++ {
				part, _ := env.QueryTables(qi)
				out, err := env.runOn(model.KernelQuantOnly, part, qi, topk, opt)
				if err != nil {
					return err
				}
				pruned += out.Stats.Pruned
				lbs += out.Stats.LowerBounds
			}
			fmt.Fprintf(tw, "%d\t%.2f\t%.3f\n", topk, keep*100, 100*float64(pruned)/float64(lbs))
		}
	}
	return tw.Flush()
}

// Figure18 sweeps topk: higher topk raises the pruning threshold's
// distance, lowering pruning power and scan speed.
func Figure18(env *Env, w io.Writer) error {
	arch := perf.Haswell
	tw := newTab(w)
	fmt.Fprintf(tw, "topk\tpruned %% (fastpq)\tspeed [Mvecs/s fastpq]\tspeed [Mvecs/s libpq]\n")
	for _, topk := range []int{10, 20, 50, 100, 200, 500, 1000} {
		var pruned, lbs int
		var fastSpeed, libpqSpeed float64
		for qi := 0; qi < env.Scale.QueryN; qi++ {
			part, _ := env.QueryTables(qi)
			n := env.Index.Parts()[part].N
			out, err := env.runOn(model.KernelFastScan, part, qi, topk, HeadlineFastOpts(n, topk))
			if err != nil {
				return err
			}
			pruned += out.Stats.Pruned
			lbs += out.Stats.LowerBounds
			fastSpeed += speedMvecs(out.Stats.Counters(arch), n, arch)
			lp, err := env.runOn(model.KernelLibpq, part, qi, topk, PaperFastOpts())
			if err != nil {
				return err
			}
			libpqSpeed += speedMvecs(lp.Stats.Counters(arch), n, arch)
		}
		nq := float64(env.Scale.QueryN)
		fmt.Fprintf(tw, "%d\t%.2f\t%.0f\t%.0f\n",
			topk, 100*float64(pruned)/float64(lbs), fastSpeed/nq, libpqSpeed/nq)
	}
	return tw.Flush()
}

// Figure19 orders partitions by size and reports fastpq pruning power and
// scan speed on each: pruning is size-insensitive while speed drops for
// partitions too small for deep grouping (the nmin(c) rule).
func Figure19(env *Env, w io.Writer) error {
	arch := perf.Haswell
	parts := env.Index.Parts()
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return parts[order[a]].N > parts[order[b]].N
	})
	tw := newTab(w)
	fmt.Fprintf(tw, "partition\t# vectors\tc\t# queries\tpruned %%\tspeed [Mvecs/s fastpq]\tspeed [Mvecs/s libpq]\n")
	for _, part := range order {
		n := parts[part].N
		opt := HeadlineFastOpts(n, 100)
		pool := env.partitionPoolQueries(part, 8)
		if len(pool) == 0 {
			fmt.Fprintf(tw, "%d\t%d\t-\t0\t-\t-\t-\n", part, n)
			continue
		}
		var pruned, lbs int
		var fastSpeed, libpqSpeed float64
		var c int
		for _, qi := range pool {
			out, _, err := env.runPool(model.KernelFastScan, qi, 100, opt)
			if err != nil {
				return err
			}
			fs, err := env.FastScanner(part, opt)
			if err != nil {
				return err
			}
			c = fs.GroupComponents()
			pruned += out.Stats.Pruned
			lbs += out.Stats.LowerBounds
			fastSpeed += speedMvecs(out.Stats.Counters(arch), n, arch)
			lp, _, err := env.runPool(model.KernelLibpq, qi, 100, opt)
			if err != nil {
				return err
			}
			libpqSpeed += speedMvecs(lp.Stats.Counters(arch), n, arch)
		}
		nq := float64(len(pool))
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.2f\t%.0f\t%.0f\n",
			part, n, c, len(pool), 100*float64(pruned)/float64(lbs), fastSpeed/nq, libpqSpeed/nq)
	}
	return tw.Flush()
}

// Figure20 reports the large-scale comparison: mean response time of
// libpq vs fastpq over routed queries, the grouped layout's memory use,
// and scan speed across the four modeled CPU architectures.
func Figure20(env *Env, w io.Writer) error {
	tw := newTab(w)
	archB := perf.IvyBridge

	var libpqMs, fastMs float64
	var fastStats, libpqStats []model.Stats
	var totalN int
	for qi := 0; qi < env.Scale.QueryN; qi++ {
		part, _ := env.QueryTables(qi)
		n := env.Index.Parts()[part].N
		totalN += n
		out, err := env.runOn(model.KernelFastScan, part, qi, 100, HeadlineFastOpts(n, 100))
		if err != nil {
			return err
		}
		fastMs += out.Stats.Counters(archB).Seconds(archB) * 1e3
		fastStats = append(fastStats, out.Stats)
		lp, err := env.runOn(model.KernelLibpq, part, qi, 100, PaperFastOpts())
		if err != nil {
			return err
		}
		libpqMs += lp.Stats.Counters(archB).Seconds(archB) * 1e3
		libpqStats = append(libpqStats, lp.Stats)
	}
	nq := float64(env.Scale.QueryN)
	fmt.Fprintf(tw, "mean response time [ms, %s]\tlibpq\t%.2f\n", archB.Name, libpqMs/nq)
	fmt.Fprintf(tw, "\tfastpq\t%.2f\n", fastMs/nq)

	m, err := env.Index.GroupedMemoryBytes()
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "memory use [MiB]\tlibpq (row-major)\t%.2f\n", float64(m.RowMajor)/(1<<20))
	fmt.Fprintf(tw, "\tfastpq (grouped, packed)\t%.2f\n", float64(m.Packed)/(1<<20))

	fmt.Fprintf(tw, "\nscan speed [Mvecs/s]\tlibpq\tfastpq\tspeedup\n")
	for _, arch := range perf.Architectures {
		var libpqCycles, fastCycles float64
		for i := range fastStats {
			fastCycles += fastStats[i].Counters(arch).Cycles
			libpqCycles += libpqStats[i].Counters(arch).Cycles
		}
		libpqSpeed := float64(totalN) / (libpqCycles / (arch.FreqGHz * 1e9)) / 1e6
		fastSpeed := float64(totalN) / (fastCycles / (arch.FreqGHz * 1e9)) / 1e6
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.1f\n", arch.Name, libpqSpeed, fastSpeed, fastSpeed/libpqSpeed)
	}
	return tw.Flush()
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"pqfastscan"
)

// runConfig is one invocation: one workload, traced or not.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	scale    scale
	spans    string // file the traced run writes its spans to, "" for none
}

// outcome is what a run measured.
type outcome struct {
	attempted int
	failed    int
	err       error           // the first failure
	metrics   map[string]stat // by metric name
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.err == nil {
		o.err = err
	}
}

// count adds a phase's operations to the totals.
func (o *outcome) count(p *phase) {
	o.attempted += p.ops() + p.failed
	o.failed += p.failed
	if o.err == nil {
		o.err = p.err
	}
}

// oracle answers q with the scalar reference: the naive kernel on the
// instruction-counting engine, same index, same query shape.
func oracle(idx *pqfastscan.Index, sp spec, q []float32) ([]pqfastscan.Result, error) {
	opts := append(sp.options(), pqfastscan.WithKernel(pqfastscan.KernelNaive), pqfastscan.WithEngine(pqfastscan.EngineModel))
	res, err := idx.Search(context.Background(), q, sp.k, opts...)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// gate asks every check query through the workload's own path and
// requires the oracle's answer, ids and distances. It returns the
// answers' recall against the exact neighbours.
func gate(c *corpus, w workload, sp spec, out *outcome) float64 {
	answers := make([][]pqfastscan.Result, c.checks.Rows())
	for i := range answers {
		q := c.checks.Row(i)
		out.attempted++
		got, err := w.ask(q)
		if err == nil {
			var want []pqfastscan.Result
			if want, err = oracle(c.idx, sp, q); err == nil && !sameAnswer(got, want) {
				err = fmt.Errorf("check query %d: answer differs from the scalar oracle", i)
			}
		}
		if err != nil {
			out.fail(err)
		}
		answers[i] = got
	}
	return recall(answers, c.truth, sp.k)
}

// execute runs one workload on a built corpus.
func execute(cfg runConfig, c *corpus) (*outcome, error) {
	sp := specFor(cfg.workload)
	out := &outcome{metrics: make(map[string]stat)}

	var w workload
	var lib *libWorkload
	if !sp.http {
		lib = newLibWorkload(c, sp)
		w = lib
	} else {
		hw, err := newHTTPWorkload(c, sp)
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", sp.name, err)
		}
		w = hw
	}
	defer w.close()

	// Correctness comes before any timing.
	t0 := time.Now()
	rec := gate(c, w, sp, out)
	pruned := 0.0
	if cfg.trace {
		var err error
		if pruned, err = prunedShare(c, sp); err != nil {
			return nil, err
		}
	}
	checkS := c.checkS + time.Since(t0).Seconds()
	if out.failed > 0 {
		return out, nil
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(sp.clients)
	}
	next := make([]int, sp.clients)
	lp := loop{clients: sp.clients, cycle: sp.cycle, raw: sp.http}
	lp.drive(cfg.scale.warm, next, w.op(nil))
	setupS := time.Since(c.start).Seconds() - checkS

	if !cfg.trace {
		hw, _ := w.(*httpWorkload)
		routed := hw != nil && hw.router != nil
		var before counters
		if routed {
			before = hw.counters()
		}
		load := lp.drive(cfg.window, next, w.op(nil))
		out.count(load)
		if routed {
			checkRetries(hw.counters().minus(before), out)
		}
		e2e := loadStats(load, out.metrics)
		load = nil // the recorded operations are not part of the served heap
		if lib != nil {
			endChecks(c, lib, out)
		}
		out.metrics["qps"], out.metrics["p50_us"], out.metrics["cpu_us_per_op"] = e2e.qps, e2e.p50, e2e.cpu
		out.metrics["recall_at_k"] = plain(rec)
		out.metrics["heap_mb"] = plain(heapMB())
		out.metrics["setup_s"] = plain(setupS)
		out.metrics["check_s"] = plain(checkS)
		return out, nil
	}

	m := out.metrics
	m["dataset.gen_s"], m["index.build_s"], m["index.warm_s"] = plain(c.genS), plain(c.buildS), plain(c.warmS)
	m["scan.pruned_share"] = plain(pruned)
	m["mem.copy_gb_per_s"] = plain(copyBandwidth())
	if err := traced(cfg, c, w, lib, lp, tr, next, out); err != nil {
		return nil, err
	}
	if lib != nil {
		endChecks(c, lib, out)
	}
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}

// e2eStats are the three end-to-end numbers a window of load gives.
type e2eStats struct{ qps, p50, cpu stat }

// loadStats turns a window of load into the end-to-end numbers by the
// slice rule of stats.go, and records beside them the raw ones, which show
// how disturbed the window was and what the rule could hide.
func loadStats(load *phase, m map[string]stat) e2eStats {
	perSec, cpuUs := load.rates()
	e := e2eStats{
		qps: load.overSlices(func(i int) float64 { return perSec[i] * load.slow[i] }),
		p50: load.settledUs(load.pick(ofKind(kSearch))),
		cpu: load.overSlices(func(i int) float64 { return cpuUs[i] / load.slow[i] }),
	}

	ops := float64(load.ops())
	m["load.mean_qps"] = plain(ops / load.length.Seconds())
	m["load.cpu_raw_us"] = plain(float64(load.cpu) / 1e3 / ops)
	var lat []float64
	for _, s := range load.pick(ofKind(kSearch)) {
		lat = append(lat, s.v/1e3)
	}
	sort.Float64s(lat)
	m["load.p99_us"] = stat{Value: quantile(lat, 0.99), N: len(lat), Q25: quantile(lat, 0.25), Q75: quantile(lat, 0.75)}
	slow := load.slowdowns() // reported for a raw loop too
	m["load.slowdown"] = load.overSlices(func(i int) float64 { return slow[i] })
	quiet := 0
	for _, r := range perSec {
		if math.Abs(r-e.qps.Value) <= 0.1*e.qps.Value {
			quiet++
		}
	}
	m["load.quiet_share"] = plain(float64(quiet) / float64(len(perSec)))
	m["load.slices"] = plain(float64(len(perSec)))
	return e
}

// endChecks closes a library run: the index holds exactly the vectors it
// should, and the check queries still get the oracle's answers from the
// mutated index.
func endChecks(c *corpus, w *libWorkload, out *outcome) {
	out.attempted++
	if got, want := c.idx.Live(), c.rows+w.adds-w.deletes; got != want {
		out.fail(fmt.Errorf("index holds %d live vectors after the run, want %d", got, want))
	}
	if w.adds == 0 {
		return // nothing was mutated: the gate's answers stand
	}
	for i := 0; i < c.checks.Rows(); i++ {
		out.attempted++
		q := c.checks.Row(i)
		got, err := w.ask(q)
		if err == nil {
			err = w.checkLive(got)
		}
		if err == nil {
			var want []pqfastscan.Result
			if want, err = oracle(c.idx, w.sp, q); err == nil && !sameAnswer(got, want) {
				err = fmt.Errorf("check query %d: answer on the mutated index differs from the scalar oracle", i)
			}
		}
		if err != nil {
			out.fail(err)
		}
	}
}

// heapMB is the heap in use once garbage is collected, in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the first cycle's sweep frees what the second counts
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// prunedShare is the share of lower-bounded vectors Fast Scan pruned on
// the check queries: a count, so it repeats exactly.
func prunedShare(c *corpus, sp spec) (float64, error) {
	var lower, pruned int
	for i := 0; i < c.checks.Rows(); i++ {
		res, err := c.idx.Search(context.Background(), c.checks.Row(i), sp.k, append(sp.options(), pqfastscan.WithStats())...)
		if err != nil {
			return 0, fmt.Errorf("stats query: %w", err)
		}
		lower += res.Stats.LowerBounds
		pruned += res.Stats.Pruned
	}
	if lower == 0 {
		return 0, errors.New("stats queries evaluated no lower bound")
	}
	return float64(pruned) / float64(lower), nil
}

// copyBandwidth is the rate of the best of eight copies of 64 MiB: what
// the memory system gives a single core, for reading scan.gb_per_s.
func copyBandwidth() float64 {
	const size = 64 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	best := math.Inf(1)
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		copy(dst, src)
		best = math.Min(best, time.Since(t0).Seconds())
	}
	return size / best / 1e9
}

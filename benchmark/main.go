// Command benchmark is the repository's standing benchmark: one
// invocation runs one named workload against the library, the server or
// the router, checks every answer, and prints each metric by name with
// its unit. BENCHMARK.json at the repository root tells the driver how to
// call it; README.md in this directory says what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"pqfastscan"
)

// processStart is as close to the start of the process as Go code gets;
// setup_s counts from here.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], processStart, os.Stdout, os.Stderr)) }

// environment is recorded with every result, so a number can be traced
// to the machine and the code that produced it.
type environment struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Scale      string   `json:"scale"`
	NumCPU     int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Backend    string   `json:"backend"`
	CPU        []string `json:"cpu_features"`
	Commit     string   `json:"commit"`
}

// record is one metric of the flat document -out writes.
type record struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
	Q25      float64 `json:"q25"`
	Q75      float64 `json:"q75"`
}

// document is what -out writes: the environment and every metric of the
// run, the gated ones and the ones printed beside them.
type document struct {
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Records   []record    `json:"records"`
}

// extraDefs are printed by the untraced run beside the gated metrics,
// never in its result object.
var extraDefs = []metricDef{
	{Name: "check_s", Unit: "s"},
	{Name: "load.mean_qps", Unit: "1/s"}, {Name: "load.p99_us", Unit: "us"},
	{Name: "load.quiet_share", Unit: "share"}, {Name: "load.slices", Unit: "count"},
	{Name: "load.slowdown", Unit: "ratio"}, {Name: "load.cpu_raw_us", Unit: "us"},
	{Name: "cluster.failovers", Unit: "count", Only: routerOnly}, {Name: "cluster.hedges", Unit: "count", Only: routerOnly},
}

// commit is the commit the binary was built from; run.sh sets it when
// the sources are in a git checkout.
var commit = "unknown"

// refusedEnv are the settings the benchmark will not run under: a forced
// backend or a paged store changes what every number means.
var refusedEnv = []string{"PQ_FORCE_BACKEND", "PQ_STORE_DIR", "PQ_POOL_BYTES"}

func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: lib_scanall, lib_mixed, serve_search or router_search")
	seed := fs.Uint64("seed", 42, "seed of the load: the query pool and the written vectors")
	seconds := fs.Float64("seconds", 16, "length of the measured window; BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1 records spans around each layer and reports the per-layer metrics instead")
	scaleName := fs.String("scale", "full", "full, or quick for the smoke test (never gated)")
	outPath := fs.String("out", "", "write every metric and the environment to this file as one JSON document")
	spansPath := fs.String("spans", "", "traced run: write the spans to this file, one JSON object per line")
	selfcheck := fs.Bool("selfcheck", false, "run whole sets of all workloads, each in its own process, and compare them")
	sets := fs.Int("sets", 2, "selfcheck: number of sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, v := range refusedEnv {
		if os.Getenv(v) != "" {
			fmt.Fprintf(stderr, "benchmark: %s is set; unset it, the benchmark measures the default configuration\n", v)
			return 2
		}
	}
	sc, ok := scales[*scaleName]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -scale is full or quick, -seconds is positive, -trace is 0 or 1")
		return 2
	}
	if *selfcheck {
		return runSelfcheck(*sets, *seed, *seconds, sc, stdout, stderr)
	}
	if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	cfg := runConfig{
		workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, scale: sc, spans: *spansPath,
	}
	c, err := buildCorpus(start, sc, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	out, err := execute(cfg, c)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	env := environment{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: *seconds, Trace: cfg.trace, Scale: sc.name,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Backend: pqfastscan.ActiveBackend().String(), CPU: pqfastscan.CPUFeatures(), Commit: commit,
	}
	return report(env, out, *outPath, stdout, stderr)
}

// report prints every metric of the workload's path with its unit, then
// the result object as the last line. A failed operation or a value that
// is not a finite number makes the run fail; nothing is rewritten to 0.
func report(env environment, out *outcome, outPath string, stdout, stderr io.Writer) int {
	gated := endToEndDefs
	if env.Trace {
		gated = perLayerDefs
	}
	defs := gated
	if !env.Trace {
		defs = append(append([]metricDef(nil), gated...), extraDefs...)
	}
	doc := document{Env: env, Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	envLine, _ := json.Marshal(env) // a struct of strings and numbers always marshals
	fmt.Fprintf(stdout, "env %s\n", envLine)
	if out.failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d of %d operations failed; first: %v\n", out.failed, out.attempted, out.err)
		return 1
	}
	for _, d := range defs {
		if !d.on(env.Workload) {
			continue
		}
		s, ok := out.metrics[d.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			fmt.Fprintf(stderr, "benchmark: metric %s has no finite value (%v)\n", d.Name, s.Value)
			return 1
		}
		doc.Records = append(doc.Records, record{env.Workload, d.Name, d.Unit, s.Value, s.N, s.Q25, s.Q75})
		fmt.Fprintf(stdout, "metric %-14s %-28s %14.4f %-6s n=%-4d q25=%.4f q75=%.4f\n",
			env.Workload, d.Name, s.Value, d.Unit, s.N, s.Q25, s.Q75)
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: write -out:", err)
			return 1
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, out.attempted, 0, make(map[string]value, len(gated))}
	for _, d := range gated {
		v := value{offPath, d.Unit}
		if d.on(env.Workload) {
			v.Value = out.metrics[d.Name].Value
		}
		result.Metrics[d.Name] = v
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

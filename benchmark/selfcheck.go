package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runSelfcheck runs whole sets of all four workloads back to back, each
// workload in a process of its own as the driver runs it, odd sets in
// reverse order, and compares the sets: it prints every value of every
// workload and end-to-end metric, the quartile distance over the median,
// the largest difference between two sets and the bound. It fails by the
// driver's rule: a quartile distance over a bound, setup_s excepted. Set
// i loads with seed+i, as the driver gives every run another seed;
// recall_at_k comes from constant queries and must not move at all.
func runSelfcheck(sets int, seed uint64, seconds float64, sc scale, stdout, stderr io.Writer) int {
	if sets < 2 {
		fmt.Fprintln(stderr, "benchmark: -sets must be at least 2")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "pqbenchmark-selfcheck-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	shown := append(append([]metricDef(nil), endToEndDefs...), metricDef{Name: "load.mean_qps", Unit: "1/s", Better: "higher"})
	values := make(map[string][]float64) // "workload metric" -> one value per set
	for set := 0; set < sets; set++ {
		order := append([]workloadDef(nil), workloadDefs...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.Name, set))
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatUint(seed+uint64(set), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-scale", sc.name, "-out", out)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d of %s: %v\n", set, w.Name, err)
				return 1
			}
			raw, err := os.ReadFile(out)
			var doc document
			if err == nil {
				err = json.Unmarshal(raw, &doc)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d of %s: %v\n", set, w.Name, err)
				return 1
			}
			for _, r := range doc.Records {
				key := w.Name + " " + r.Metric
				values[key] = append(values[key], r.Value)
			}
			fmt.Fprintf(stdout, "set %d %s done\n", set, w.Name)
		}
	}

	type cell struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"` // quartile distance over median
		Range    float64   `json:"range"`  // largest difference between two sets, over median
		Bound    float64   `json:"bound"`
		Within   bool      `json:"within"`
	}
	var cells []cell
	ok := true
	for _, w := range workloadDefs {
		for _, d := range shown {
			v := values[w.Name+" "+d.Name]
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			med := quantile(s, 0.5)
			c := cell{
				Workload: w.Name, Metric: d.Name, Unit: d.Unit, Values: v, Median: med,
				Spread: (exclusiveQuantile(s, 0.75) - exclusiveQuantile(s, 0.25)) / med, Range: (s[len(s)-1] - s[0]) / med, Bound: d.Bound,
			}
			switch d.Name {
			case "load.mean_qps", "setup_s":
				c.Within = true // shown for comparison; the driver exempts setup_s's spread
			case "recall_at_k":
				c.Within = c.Range == 0
			default:
				c.Within = c.Spread <= d.Bound
			}
			if math.IsNaN(c.Spread) || !c.Within {
				ok = false
			}
			cells = append(cells, c)
			fmt.Fprintf(stdout, "%-14s %-14s median %12.4f %-6s spread %6.2f%% range %6.2f%% bound %5.1f%% %v\n",
				c.Workload, c.Metric, c.Median, c.Unit, 100*c.Spread, 100*c.Range, 100*c.Bound, v)
		}
	}
	// The summary compares runs of one commit with each other and with
	// nothing else: it never claims a gain.
	summary, err := json.Marshal(struct {
		Sets   int    `json:"sets"`
		Within bool   `json:"within_bounds"`
		Cells  []cell `json:"cells"`
		Claim  any    `json:"claim"`
	}{sets, ok, cells, nil})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", summary)
	if !ok {
		return 1
	}
	return 0
}

// exclusiveQuantile reads a quantile the way Python's
// statistics.quantiles does by default, which is how the driver computes
// the spread: position q(n+1) among the sorted values, clamped to them.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	lo := min(max(int(math.Floor(pos)), 0), len(sorted)-2)
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

// Command abpairs compares two trees of this repository on the standing
// benchmark in alternating pairs, the way a perf claim is stated.
//
//	go run ./internal/tools/abpairs -a HEAD~1 -b . -workloads lib_mixed -seeds 10
//
// -a and -b each name a directory holding a checkout, or a git revision
// of the repository abpairs runs in, which it exports with git archive
// into a temporary directory. For every workload and for seeds 1…N it
// runs
//
//	bash <tree>/benchmark/run.sh --workload W --seed s --seconds S --trace 0
//
// once per tree, A first on odd seeds and B first on even ones (A B B
// A …), and reads the last line each run prints, the result object. It
// prints one line per run, then per workload and gated metric of
// BENCHMARK.json: both medians and IQRs, the median paired ratio B/A,
// the pairs in which B is better, and whether the gap between the
// medians exceeds A's IQR. A run that exits non-zero or prints no
// result line is reported as failed and counted, never dropped. The
// claim and its bounds stay the reader's: abpairs judges nothing.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// metric is one end-to-end metric BENCHMARK.json declares.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "the parent: a directory or a git revision")
	b := fs.String("b", "", "the change: a directory or a git revision")
	workloads := fs.String("workloads", "", "comma-separated workloads of BENCHMARK.json")
	seeds := fs.Int("seeds", 10, "pairs per workload, seeds 1…N")
	seconds := fs.Float64("seconds", 16, "measured window of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" || *workloads == "" || *seeds < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "abpairs: -a, -b and -workloads are required, -seeds and -seconds positive")
		return 2
	}
	tmp, err := os.MkdirTemp("", "abpairs-")
	if err != nil {
		fmt.Fprintln(stderr, "abpairs:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	treeA, err := tree(*a, filepath.Join(tmp, "a"))
	if err == nil {
		var treeB string
		treeB, err = tree(*b, filepath.Join(tmp, "b"))
		if err == nil {
			err = compare(treeA, treeB, strings.Split(*workloads, ","), *seeds, *seconds, stdout, stderr)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "abpairs:", err)
		return 1
	}
	return 0
}

// tree returns the directory of a checkout: spec itself when it is a
// directory, else the revision spec exported into dir.
func tree(spec, dir string) (string, error) {
	if st, err := os.Stat(spec); err == nil && st.IsDir() {
		return filepath.Abs(spec)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", spec)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	var errs bytes.Buffer
	archive.Stderr, untar.Stderr = &errs, &errs
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %v: %s", spec, err, errs.String())
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("untar %s: %v: %s", spec, err, errs.String())
	}
	return dir, nil
}

// compare runs the pairs of every workload and prints the runs and the
// cells.
func compare(treeA, treeB string, workloads []string, seeds int, seconds float64, stdout, stderr io.Writer) error {
	metrics, err := gated(treeA)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "A = %s\nB = %s\n", treeA, treeB)
	for _, w := range workloads {
		pairs := make([]Pair, seeds)
		for i := range pairs {
			s := uint64(i + 1)
			pairs[i].Seed = s
			order := []struct {
				side string
				dir  string
				run  *Run
			}{{"A", treeA, &pairs[i].A}, {"B", treeB, &pairs[i].B}}
			if s%2 == 0 {
				order[0], order[1] = order[1], order[0]
			}
			for _, o := range order {
				*o.run = benchRun(o.dir, w, s, seconds, stderr)
				fmt.Fprintf(stdout, "run %s seed %d %s %s\n", w, s, o.side, describe(*o.run, metrics))
			}
		}
		fmt.Fprintf(stdout, "%s, %d pairs (A B B A …):\n", w, seeds)
		for _, m := range metrics {
			fmt.Fprintf(stdout, "  %s\n", Compare(pairs, m.Name, m.Better == "lower"))
		}
	}
	return nil
}

// gated reads the end-to-end metrics from the tree's BENCHMARK.json.
func gated(dir string) ([]metric, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return doc.EndToEnd, nil
}

// benchRun runs one workload of the benchmark in dir and parses its
// result line.
func benchRun(dir, workload string, seed uint64, seconds float64, stderr io.Writer) Run {
	cmd := exec.Command("bash", filepath.Join(dir, "benchmark", "run.sh"),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return Run{Err: err.Error()}
	}
	return parseResult(out)
}

// parseResult reads the last non-empty line of a run's output as its
// result object.
func parseResult(out []byte) Run {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return Run{Err: "no result line"}
	}
	if !res.Correct || res.Failed > 0 {
		return Run{Err: fmt.Sprintf("%d failed operations", res.Failed)}
	}
	r := Run{Metrics: make(map[string]float64, len(res.Metrics))}
	for name, v := range res.Metrics {
		r.Metrics[name] = v.Value
	}
	return r
}

// describe is a run's line: its metrics in BENCHMARK.json's order, or
// why it failed.
func describe(r Run, metrics []metric) string {
	if r.Failed() {
		return "FAILED: " + r.Err
	}
	var b strings.Builder
	for i, m := range metrics {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%g", m.Name, r.Metrics[m.Name])
	}
	return b.String()
}

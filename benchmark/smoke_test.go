package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestTablesAgree checks that BENCHMARK.json says what the program's
// tables say: workloads, metrics, units, directions and bounds.
func TestTablesAgree(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if got := bf.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if got := bf.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", bf.RunSeconds)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads and two traced runs at the quick
// size, on one corpus, and checks what they print: every metric of
// BENCHMARK.json exactly once, under its declared unit, finite. It
// asserts no speed; nothing here fails because the machine is slow.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an index and runs load for several seconds")
	}
	for _, v := range refusedEnv {
		if os.Getenv(v) != "" {
			t.Skipf("%s is set; the benchmark refuses to run", v)
		}
	}
	bf := readBenchmarkFile(t)
	sc := scales["quick"]
	c, err := buildCorpus(time.Now(), sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	// lib_mixed changes the index, so it runs after the others.
	runs := []struct {
		workload string
		trace    bool
	}{
		{"lib_scanall", false}, {"serve_search", false}, {"router_search", false}, {"router_search", true},
		{"lib_mixed", false}, {"lib_mixed", true},
	}
	for _, r := range runs {
		name := r.workload
		if r.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: r.workload, seed: 7, window: 2 * time.Second, trace: r.trace, scale: sc}
			if r.trace {
				cfg.spans = t.TempDir() + "/spans.jsonl"
			}
			out, err := execute(cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			env := environment{Workload: r.workload, Seed: 7, Seconds: 2, Trace: r.trace, Scale: sc.name}
			if code := report(env, out, "", &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr.String())
			}

			want := make(map[string]string) // name -> unit
			off := make(map[string]bool)    // names whose layer is not on this workload's path
			if r.trace {
				for i, d := range bf.PerLayer {
					want[d.Name] = d.Unit
					off[d.Name] = !perLayerDefs[i].on(r.workload) // TestTablesAgree: same order
				}
			} else {
				for _, d := range bf.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			printed := make(map[string]int)
			for _, line := range lines {
				f := strings.Fields(line)
				if len(f) >= 5 && f[0] == "metric" {
					printed[f[2]]++
					if unit, ok := want[f[2]]; ok && f[4] != unit {
						t.Errorf("%s printed with unit %q, declared %q", f[2], f[4], unit)
					}
				}
			}
			var result struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&result); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
			}
			if !result.Correct || result.Failed != 0 || result.Attempted < 1 {
				t.Errorf("result says correct=%v attempted=%d failed=%d", result.Correct, result.Attempted, result.Failed)
			}
			if len(result.Metrics) != len(want) {
				t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(result.Metrics), len(want))
			}
			for name, unit := range want {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q is not made of letters, digits, _ . and -", name)
				}
				times := 1
				if off[name] {
					times = 0
				}
				if printed[name] != times {
					t.Errorf("%s printed %d times, want %d", name, printed[name], times)
				}
				m, ok := result.Metrics[name]
				switch {
				case !ok:
					t.Errorf("result lacks %s", name)
				case m.Unit != unit:
					t.Errorf("result has %s in %q, declared %q", name, m.Unit, unit)
				case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("result has no finite value for %s", name)
				case off[name] != (*m.Value == offPath):
					t.Errorf("result has %v for %s, whose layer is off the path: %v", *m.Value, name, off[name])
				}
			}
			if r.trace {
				raw, err := os.ReadFile(cfg.spans)
				if err != nil || len(raw) == 0 {
					t.Errorf("traced run wrote no spans: %v", err)
				}
			}
		})
	}
}
func TestExclusiveQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	s := []float64{1, 2, 4, 8, 16, 32, 64}
	if q1, q3 := exclusiveQuantile(s, 0.25), exclusiveQuantile(s, 0.75); q1 != 2 || q3 != 32 {
		t.Errorf("quartiles of %v: %v %v, want 2 32", s, q1, q3)
	}
	s = []float64{10, 20}
	if q1, q3 := exclusiveQuantile(s, 0.25), exclusiveQuantile(s, 0.75); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of %v: %v %v, want 7.5 22.5", s, q1, q3)
	}
}

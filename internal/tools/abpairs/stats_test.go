package main

import (
	"math"
	"strings"
	"testing"
)

func ok(v float64) Run { return Run{Metrics: map[string]float64{"p50_us": v}} }

// TestCompareEvenCountTiesAndAFailedRun: four pairs — one tie, one in
// which B is better, one in which B is worse, one whose B run failed.
// The tie and the failed pair are no wins, the failed pair still counts
// in Pairs, the even-count medians are the mean of the middle two, and
// the ratio is the median over the three complete pairs.
func TestCompareEvenCountTiesAndAFailedRun(t *testing.T) {
	pairs := []Pair{
		{Seed: 1, A: ok(100), B: ok(100)},                    // tie
		{Seed: 2, A: ok(200), B: ok(150)},                    // B better
		{Seed: 3, A: ok(120), B: ok(130)},                    // B worse
		{Seed: 4, A: ok(140), B: Run{Err: "no result line"}}, // failed
	}
	c := Compare(pairs, "p50_us", true)
	if c.Wins != 1 || c.Pairs != 4 || c.Failed != 1 {
		t.Fatalf("wins %d/%d, failed %d; want 1/4, 1", c.Wins, c.Pairs, c.Failed)
	}
	if c.NA != 4 || c.NB != 3 {
		t.Fatalf("n %d, %d; want 4 completed A runs and 3 B", c.NA, c.NB)
	}
	if c.MedianA != 130 || c.MedianB != 130 { // (120+140)/2; the middle of 100, 130, 150
		t.Fatalf("medians %v, %v; want 130, 130", c.MedianA, c.MedianB)
	}
	// A sorted: 100 120 140 200; q25 at position 0.75 is 115, q75 at
	// 2.25 is 155.
	if c.IQRA != 40 {
		t.Fatalf("IQR A %v, want 40", c.IQRA)
	}
	if math.Abs(c.Ratio-1) > 1e-12 { // B/A: 1, 0.75, 1.0833… → median 1
		t.Fatalf("median ratio %v, want 1", c.Ratio)
	}
	if c.Resolved {
		t.Fatal("equal medians reported resolved")
	}
	if s := c.String(); !strings.Contains(s, "1/4") || !strings.Contains(s, "1 pair(s) with a failed run") || !strings.Contains(s, "unresolved") {
		t.Fatalf("report line %q", s)
	}
}

// TestCompareDirectionAndResolution: for a higher-is-better metric the
// wins count the other way, and a gap wider than A's IQR resolves.
func TestCompareDirectionAndResolution(t *testing.T) {
	qps := func(v float64) Run { return Run{Metrics: map[string]float64{"qps": v}} }
	pairs := []Pair{{A: qps(10), B: qps(20)}, {A: qps(11), B: qps(21)}, {A: qps(12), B: qps(12)}}
	c := Compare(pairs, "qps", false)
	if c.Wins != 2 || c.Pairs != 3 || c.Failed != 0 {
		t.Fatalf("wins %d/%d failed %d; want 2/3, 0", c.Wins, c.Pairs, c.Failed)
	}
	if !c.Resolved || c.MedianA != 11 || c.MedianB != 20 {
		t.Fatalf("medians %v → %v resolved %v; want 11 → 20, resolved", c.MedianA, c.MedianB, c.Resolved)
	}
}

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{7}, 0.75, 7},
		{[]float64{5, 5, 5, 5}, 0.25, 5},
	} {
		if got := Quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("Quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of no values is not NaN")
	}
}

// TestParseResult: the last line is the result object; a run without
// one, or with failed operations, is a failed run.
func TestParseResult(t *testing.T) {
	good := parseResult([]byte("env {}\nmetric x\n{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{\"p50_us\":{\"value\":189.3,\"unit\":\"us\"}}}\n"))
	if good.Failed() || good.Metrics["p50_us"] != 189.3 {
		t.Fatalf("parsed %+v", good)
	}
	for _, out := range []string{"env {}\nmetric x\n", "", "{\"correct\":false,\"failed\":2,\"metrics\":{}}"} {
		if r := parseResult([]byte(out)); !r.Failed() {
			t.Errorf("output %q parsed as a result: %+v", out, r)
		}
	}
}

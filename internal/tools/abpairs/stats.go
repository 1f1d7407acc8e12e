package main

import (
	"fmt"
	"math"
	"slices"
)

// Run is one benchmark run: the gated metrics of its result line, or
// why it has none (a non-zero exit, or no result line).
type Run struct {
	Metrics map[string]float64
	Err     string
}

// Failed reports whether the run produced no result.
func (r Run) Failed() bool { return r.Err != "" }

// Pair is one seed's two runs, A (the parent) and B (the change).
type Pair struct {
	Seed uint64
	A, B Run
}

// Cell is one metric of one workload over the pairs of a comparison.
type Cell struct {
	Metric string
	// Medians and interquartile ranges of each side's completed runs,
	// and how many there were.
	MedianA, IQRA, MedianB, IQRB float64
	NA, NB                       int
	// Ratio is the median of B/A over the pairs whose runs both
	// completed; NaN when none did.
	Ratio float64
	// Wins counts the pairs in which B is strictly better than A; a tie
	// or a pair with a failed run is not a win. Pairs counts every pair,
	// failed ones included, and Failed the pairs with a failed run.
	Wins, Pairs, Failed int
	// Resolved reports whether the medians lie further apart than A's
	// IQR: a gap inside the parent's own spread is unresolved.
	Resolved bool
}

// Compare summarizes metric over pairs; lowerBetter gives its direction.
// A failed run is never dropped: its pair counts in Pairs and Failed
// and cannot be a win, and only the completed runs of a side enter its
// median and IQR.
func Compare(pairs []Pair, metric string, lowerBetter bool) Cell {
	c := Cell{Metric: metric, Pairs: len(pairs)}
	var as, bs, ratios []float64
	for _, p := range pairs {
		a, aok := value(p.A, metric)
		b, bok := value(p.B, metric)
		if aok {
			as = append(as, a)
		}
		if bok {
			bs = append(bs, b)
		}
		if !aok || !bok {
			c.Failed++
			continue
		}
		if a != 0 {
			ratios = append(ratios, b/a)
		}
		if lowerBetter && b < a || !lowerBetter && b > a {
			c.Wins++
		}
	}
	c.NA, c.NB = len(as), len(bs)
	c.MedianA, c.IQRA = Quantile(as, 0.5), Quantile(as, 0.75)-Quantile(as, 0.25)
	c.MedianB, c.IQRB = Quantile(bs, 0.5), Quantile(bs, 0.75)-Quantile(bs, 0.25)
	c.Ratio = Quantile(ratios, 0.5)
	c.Resolved = math.Abs(c.MedianB-c.MedianA) > c.IQRA
	return c
}

// value returns the run's metric, and false for a failed run or one
// whose result lacks it.
func value(r Run, metric string) (float64, bool) {
	if r.Failed() {
		return 0, false
	}
	v, ok := r.Metrics[metric]
	return v, ok
}

// Quantile returns the q-quantile of xs by linear interpolation between
// the order statistics around position q·(n−1) — the median of an even
// count is the mean of the middle two — and NaN for no values.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// String is the cell's report line.
func (c Cell) String() string {
	verdict := "unresolved within spread"
	if c.Resolved {
		verdict = "gap exceeds A's IQR"
	}
	failed := ""
	if c.Failed > 0 {
		failed = fmt.Sprintf(", %d pair(s) with a failed run", c.Failed)
	}
	return fmt.Sprintf("%-14s A median %.4g (IQR %.4g, n=%d) -> B median %.4g (IQR %.4g, n=%d); median B/A %.4f (%+.1f %%); B better in %d/%d%s; %s",
		c.Metric, c.MedianA, c.IQRA, c.NA, c.MedianB, c.IQRB, c.NB, c.Ratio, 100*(c.Ratio-1), c.Wins, c.Pairs, failed, verdict)
}

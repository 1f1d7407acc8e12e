package hist

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"pqfastscan/internal/rng"
)

// TestQuantileWithinOneBucket is the histogram's whole accuracy claim as
// a property over random sample sets: every reported quantile is at
// least the true one, at most one geometric bucket (2x) above it, and
// never above the observed maximum — while Count, MeanMs and MaxMs are
// exact. Samples are drawn log-uniformly over the range the buckets
// resolve, 1 µs to ~16 s: below it every sample shares the first bucket
// and above it the last, where only the clamp to the maximum bounds the
// error.
func TestQuantileWithinOneBucket(t *testing.T) {
	r := rng.New(19)
	const lo, hi = float64(time.Microsecond), float64(int64(1) << (Buckets - 1) * int64(time.Microsecond))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(400)
		// Half the trials crowd the samples into a narrow band, so many
		// share a bucket and quantiles fall mid-bucket.
		span := math.Log(hi / lo)
		if trial%2 == 1 {
			span = math.Log(4)
		}
		base := lo * math.Exp(r.Float64()*(math.Log(hi/lo)-span))
		var h Hist
		samples := make([]int64, n)
		var sum, max int64
		for i := range samples {
			ns := int64(base * math.Exp(r.Float64()*span))
			samples[i] = ns
			sum += ns
			if ns > max {
				max = ns
			}
			h.Observe(time.Duration(ns))
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })

		if h.Count() != int64(n) {
			t.Fatalf("trial %d: Count %d, want %d", trial, h.Count(), n)
		}
		if got, want := h.MaxMs(), float64(max)/1e6; got != want {
			t.Fatalf("trial %d: MaxMs %v, want %v", trial, got, want)
		}
		if got, want := h.MeanMs(), float64(sum)/float64(n)/1e6; got != want {
			t.Fatalf("trial %d: MeanMs %v, want %v", trial, got, want)
		}
		for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			// The true quantile by the same nearest-rank convention
			// QuantileMs documents: the round(q*n)-th smallest sample.
			rank := int(q*float64(n) + 0.5)
			if rank < 1 {
				rank = 1
			}
			truth := float64(samples[rank-1]) / 1e6
			got := h.QuantileMs(q)
			if got < truth || got > 2*truth || got > h.MaxMs() {
				t.Fatalf("trial %d (n=%d): q%g reported %v ms, true %v ms, max %v ms — want true <= reported <= min(2*true, max)",
					trial, n, q, got, truth, h.MaxMs())
			}
		}
	}
}

// TestEmptyAndOutOfRange: the zero value reports zeros, a negative
// duration counts as zero, and a sample beyond the last bucket is still
// counted, summed and reported through the clamp to the maximum.
func TestEmptyAndOutOfRange(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.QuantileMs(0.5) != 0 || h.MeanMs() != 0 || h.MaxMs() != 0 {
		t.Fatalf("zero Hist reports %d / %v / %v / %v", h.Count(), h.QuantileMs(0.5), h.MeanMs(), h.MaxMs())
	}
	h.Observe(-time.Second)
	if h.Count() != 1 || h.MaxMs() != 0 || h.QuantileMs(1) != 0 {
		t.Fatalf("negative sample: count %d max %v p100 %v", h.Count(), h.MaxMs(), h.QuantileMs(1))
	}
	h.Observe(time.Hour)
	if h.Count() != 2 || h.MaxMs() != 3.6e6 {
		t.Fatalf("hour-long sample: count %d max %v ms", h.Count(), h.MaxMs())
	}
	if got := h.QuantileMs(1); got <= 0 || got > h.MaxMs() {
		t.Fatalf("p100 %v ms outside (0, max %v]", got, h.MaxMs())
	}
}

// TestConcurrentObserve: Observe from many goroutines loses nothing —
// run under -race in CI.
func TestConcurrentObserve(t *testing.T) {
	const workers, each = 8, 5000
	var h Hist
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each+i) * time.Microsecond)
				if i%100 == 0 {
					h.QuantileMs(0.99) // readers race writers in production too
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*each {
		t.Fatalf("Count %d after %d concurrent samples", h.Count(), workers*each)
	}
	if want := float64(workers*each-1) / 1e3; h.MaxMs() != want {
		t.Fatalf("MaxMs %v, want %v", h.MaxMs(), want)
	}
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total != workers*each {
		t.Fatalf("bucket counts sum to %d, want %d", total, workers*each)
	}
}

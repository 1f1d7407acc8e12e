package pqfastscan_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan"
)

// cancelAfterChecks is a context that reports cancellation starting from
// its nth Err() call. The query engine polls Err() before every
// partition scan, so this deterministically cancels a SearchBatch
// mid-flight: the first worker's query completes, every later
// cancellation check fails. (Done() is inherited from Background and
// never fires; the engine's cancellation points poll Err.)
type cancelAfterChecks struct {
	context.Context
	checks atomic.Int64
	after  int64
}

func (c *cancelAfterChecks) Err() error {
	if c.checks.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSearchBatchMidFlightCancellation cancels a batch after the first
// worker's query has completed and asserts the batch returns promptly
// with the context's error, leaking no goroutines.
func TestSearchBatchMidFlightCancellation(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)

	// Let the goroutines of earlier tests (HTTP keep-alives, pollers)
	// wind down before taking the baseline.
	baseline := settledGoroutines()

	// A batch of many multi-probe queries: each query checks Err() once
	// up front and once per probed partition, so allowing a handful of
	// checks lets the first worker finish its query and then cancels
	// every subsequent one mid-batch.
	batch := pqfastscan.NewMatrix(48, queries.Dim)
	for i := 0; i < batch.Rows(); i++ {
		copy(batch.Row(i), queries.Row(i%queries.Rows()))
	}
	ctx := &cancelAfterChecks{Context: context.Background(), after: 5}

	start := time.Now()
	res, err := idx.SearchBatch(ctx, batch, 10, pqfastscan.WithNProbe(4))
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatch returned (%v, %v), want context.Canceled", res, err)
	}
	if ctx.checks.Load() <= ctx.after {
		t.Fatalf("cancellation was never polled (only %d checks)", ctx.checks.Load())
	}
	// A cancelled 48-query batch must return long before a full scan
	// of 48×4 partitions would.
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}

	// All batch workers must have exited: poll the goroutine count back
	// down to the pre-batch baseline.
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after cancelled SearchBatch: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for a thousand yields in a row (or ten seconds have passed): a
// goroutine still winding down when it is read only raises the
// baseline, which can loosen the leak check but never fail it.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(10 * time.Second); still < 1000 && time.Now().Before(deadline); {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

package cluster

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- breaker state machine (table-driven) -------------------------------

// step drives one breaker event; want is the expected state after it.
type breakerStep struct {
	at    time.Duration // event time relative to t0
	event string        // allow | allow-denied | success | failure | cancel
	want  breakerState
}

func TestBreakerStateMachine(t *testing.T) {
	t0 := time.Unix(1000, 0)
	const threshold = 3
	const cooldown = 100 * time.Millisecond

	cases := []struct {
		name  string
		steps []breakerStep
	}{
		{"stays closed below threshold", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "success", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
		}},
		{"trips open at threshold", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
			{0, "allow-denied", breakerOpen},
		}},
		{"success resets the streak", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "success", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
		}},
		{"cooldown admits a half-open probe", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
			{cooldown / 2, "allow-denied", breakerOpen},
			{cooldown, "allow", breakerHalfOpen},
		}},
		{"half-open probe success closes", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
			{cooldown, "allow", breakerHalfOpen},
			{cooldown, "success", breakerClosed},
			{cooldown, "allow", breakerClosed},
		}},
		{"half-open probe failure reopens", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
			{cooldown, "allow", breakerHalfOpen},
			{cooldown, "failure", breakerOpen},
			{cooldown + cooldown/2, "allow-denied", breakerOpen},
			{2 * cooldown, "allow", breakerHalfOpen},
		}},
		{"half-open admits exactly one probe", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
			{cooldown, "allow", breakerHalfOpen},
			{cooldown, "allow-denied", breakerHalfOpen},
			{cooldown, "allow-denied", breakerHalfOpen},
		}},
		{"cancel releases the probe slot without judging", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
			{cooldown, "allow", breakerHalfOpen},
			{cooldown, "cancel", breakerHalfOpen},
			{cooldown, "allow", breakerHalfOpen}, // slot free again
			{cooldown, "success", breakerClosed},
		}},
		{"cancel while closed is a no-op", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "cancel", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
		}},
		{"late success while open closes (proof of life)", []breakerStep{
			{0, "failure", breakerClosed},
			{0, "failure", breakerClosed},
			{0, "failure", breakerOpen},
			{cooldown / 4, "success", breakerClosed},
			{cooldown / 4, "allow", breakerClosed},
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBreaker(threshold, cooldown)
			for i, s := range tc.steps {
				now := t0.Add(s.at)
				switch s.event {
				case "allow":
					if !b.Allow(now) {
						t.Fatalf("step %d: Allow = false, want admitted", i)
					}
				case "allow-denied":
					if b.Allow(now) {
						t.Fatalf("step %d: Allow = true, want denied", i)
					}
				case "success":
					b.Success()
				case "failure":
					b.Failure(now)
				case "cancel":
					b.Cancel()
				default:
					t.Fatalf("step %d: unknown event %q", i, s.event)
				}
				if got := b.State(); got != s.want {
					t.Fatalf("step %d (%s): state = %v, want %v", i, s.event, got, s.want)
				}
			}
		})
	}
}

// TestBreakerProbeAdmissionConcurrent trips a breaker, then races many
// goroutines through Allow after the cooldown: exactly one may be
// admitted per released probe slot. Run under -race in CI.
func TestBreakerProbeAdmissionConcurrent(t *testing.T) {
	b := newBreaker(1, time.Millisecond)
	b.Failure(time.Unix(1000, 0)) // trip

	probeTime := time.Unix(1000, 1).Add(time.Second) // well past cooldown
	const goroutines = 64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow(probeTime) {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != 1 {
		t.Fatalf("admitted %d probes concurrently, want exactly 1", admitted.Load())
	}

	// Cancelling the probe frees the slot for exactly one more.
	b.Cancel()
	admitted.Store(0)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow(probeTime) {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != 1 {
		t.Fatalf("admitted %d probes after Cancel, want exactly 1", admitted.Load())
	}

	// A successful probe closes the circuit: everyone is admitted.
	b.Success()
	admitted.Store(0)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow(probeTime) {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != goroutines {
		t.Fatalf("closed breaker admitted %d/%d", admitted.Load(), goroutines)
	}
}

// TestHedgeWinDoesNotTripLoserBreaker reproduces the hedging
// interaction: a slow-but-healthy primary loses the race to a hedged
// replica; the loser's attempt is cancelled by the sub-request
// wrapping up, which must settle its breaker as Cancel, not Failure —
// otherwise every hedged query walks the primary toward a trip.
func TestHedgeWinDoesNotTripLoserBreaker(t *testing.T) {
	full, queries := fullIndex(t)
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}

	fast := shardServer(t, full, cells)
	// A slow-but-healthy primary: every /search stalls far longer than
	// the hedge delay, so the hedged replica always wins the race.
	inner := shardServer(t, full, cells)
	target, err := url.Parse(inner.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ErrorLog = log.New(io.Discard, "", 0) // cancelled losers are the point
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search" {
			select {
			case <-time.After(500 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	const queriesRun = 5
	// One send per query: each query's one attempt on the slow primary.
	losers := make(chan struct{}, queriesRun)
	r := newRouter(t, 8, [][]string{{slow.URL, fast.URL}}, func(c *Config) {
		c.HedgeDelay = 10 * time.Millisecond
		c.BreakerThreshold = 1 // a single miscounted failure would trip — the trap
		c.settled = func(ep string) {
			if ep == slow.URL {
				losers <- struct{}{}
			}
		}
	})

	query := queries.Row(0)
	for i := 0; i < queriesRun; i++ {
		if _, err := r.Search(context.Background(), query, SearchOptions{K: 5, NProbe: 8}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// Every query's loser is the slow primary's attempt, cancelled when
	// the query returned; wait until each has settled its breaker verdict.
	for i := 0; i < queriesRun; i++ {
		select {
		case <-losers:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d cancelled loser attempts settled (slow primary's breaker %v)",
				i, queriesRun, r.endpoints[slow.URL].breaker.State())
		}
	}
	st := r.endpoints[slow.URL]
	if got := st.breaker.State(); got != breakerClosed {
		t.Fatalf("slow primary's breaker = %v after hedged wins, want closed (cancelled losers must not count as failures)", got)
	}
	if r.metrics.hedges.Load() == 0 {
		t.Fatal("test exercised no hedges; fixture is broken")
	}
}

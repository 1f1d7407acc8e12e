// Per-endpoint circuit breakers and health state. Every endpoint in
// the shard map — shared across shards that list the same URL — gets
// one endpointState: a breaker guarding the fast-fail decision, a
// latency EWMA feeding adaptive attempt timeouts, and the quarantine
// flag the health prober flips.
package cluster

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a per-endpoint circuit breaker. Closed counts consecutive
// failures and trips open at threshold; open fails fast until cooldown
// elapses, then half-open admits exactly one probe request — its
// success closes the circuit, its failure re-opens it, and its
// cancellation (a hedge sibling won, or the caller's own deadline
// expired) releases the probe slot without judging the endpoint.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	fails     int // consecutive failures while closed
	openedAt  time.Time
	probing   bool // half-open probe slot taken
	threshold int
	cooldown  time.Duration
	opens     atomic.Int64 // transitions into open, for /stats
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may be sent now. In half-open it
// admits exactly one probe; the admitted caller must settle it with
// Success, Failure, or Cancel.
func (b *breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a completed request: closes a half-open circuit,
// clears the failure streak. A success observed while open (a straggler
// from before the trip, or an external health probe) also closes it —
// proof of life beats a stale trip.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// Failure records a failed request: trips a closed circuit at
// threshold, re-opens a half-open one. Failures while already open
// only refresh nothing — the cooldown keeps running from the trip.
func (b *breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.opens.Add(1)
		}
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		b.opens.Add(1)
	}
}

// Cancel settles an admitted request that was abandoned for reasons
// that say nothing about the endpoint — a hedge sibling won the race,
// or the caller's own deadline expired. It releases a half-open probe
// slot and never counts as a failure.
func (b *breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// State returns the current state for /stats.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the circuit has tripped open.
func (b *breaker) Opens() int64 { return b.opens.Load() }

// latEWMA is a lock-free exponentially weighted moving average of
// sub-request latency in nanoseconds: a CAS loop on the float64 bits.
type latEWMA struct {
	bits    atomic.Uint64
	samples atomic.Int64
}

const latAlpha = 1.0 / 8

func (e *latEWMA) Observe(d time.Duration) {
	x := float64(d)
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		var next float64
		if cur == 0 {
			next = x
		} else {
			// Clamp a single observation's pull to 2x in either
			// direction so one outlier cannot wreck the estimate.
			if x > 2*cur {
				x = 2 * cur
			} else if x < cur/2 {
				x = cur / 2
			}
			next = cur + latAlpha*(x-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			e.samples.Add(1)
			return
		}
	}
}

// Load returns the current estimate and how many samples back it.
func (e *latEWMA) Load() (time.Duration, int64) {
	return time.Duration(math.Float64frombits(e.bits.Load())), e.samples.Load()
}

// endpointState is the router's per-endpoint health record.
type endpointState struct {
	url     string
	breaker *breaker
	latency latEWMA

	// quarantined is flipped by the health prober and read lock-free
	// by the candidate picker.
	quarantined atomic.Bool
	// probeFails/probeOKs are the prober's consecutive-outcome
	// counters; only the prober goroutine touches them.
	probeFails, probeOKs int

	quarantines    atomic.Int64 // times this endpoint was quarantined
	reinstatements atomic.Int64 // times it was reinstated
}

// attemptTimeout derives the per-attempt budget from the latency EWMA:
// a generous multiple of the typical sub-request, floored so jittery
// fast endpoints are not strangled, capped by the whole-shard budget.
// Until enough samples have accumulated the full shard budget applies —
// cold starts must not guess.
const (
	adaptiveWarmup     = 20
	adaptiveMultiplier = 4
	adaptiveFloor      = 25 * time.Millisecond
)

func (st *endpointState) attemptTimeout(max time.Duration) time.Duration {
	avg, n := st.latency.Load()
	if n < adaptiveWarmup || avg <= 0 {
		return max
	}
	d := avg * adaptiveMultiplier
	if d < adaptiveFloor {
		d = adaptiveFloor
	}
	if d > max {
		d = max
	}
	return d
}

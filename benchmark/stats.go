package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The statistic. On this shared machine a neighbour only ever makes the
// program slower, by a factor that is the same for a few dozen operations
// in a row and moves between 1 and 1.7 from one second to the next
// (README, "The statistic"); whole-window means differ by 10-20 % between
// identical runs. So a window is cut into slices of a quarter of a second,
// and every slice says two things. What the program did in it, counting
// every operation: operations per second, median latency, CPU time per
// operation. And how much the machine slowed it: every search carries a
// key that names its work, the load goes round the pool dozens of times,
// and the slice's slowdown is the median, over its searches, of latency ÷
// the fastest repetition of the same work. A metric is the median over the
// slices of the measured value with the slowdown taken out. That holds
// where one caller runs deterministic work, the library workloads; the
// HTTP workloads report the plain median over the slices (loop.raw).

// sliceLen is how long a slice is. A slowdown lasts tens of milliseconds,
// the program's own periodic work (a GC cycle, a batch window) far less
// than a slice.
const sliceLen = 250 * time.Millisecond

// Operation kinds. p50_us is taken over kSearch alone; qps counts all.
const (
	kSearch        uint8 = iota // facade or HTTP search, no span
	kAdd                        // facade Add
	kDelete                     // facade Delete
	kSearchSpanned              // the same search inside a client-side span
	kStage                      // an operation of a traced phase, timed by its spans
)

// done describes a completed operation.
type done struct {
	kind  uint8
	key   int32 // pool entry the operation worked on, -1 when it has none
	fresh bool  // a search that met a partition replaced since its last search: more work than a repeat
}

// sample is one completed operation, or one value derived from the spans
// of one query.
type sample struct {
	at time.Duration // completion, since the phase started
	v  float64       // latency in nanoseconds, unless the caller says otherwise
	done
}

// opFunc runs client c's n-th operation. A non-nil error is a failed
// operation: an error from the system, a refusal, or a wrong answer.
type opFunc func(c, n int) (done, error)

// tick is the CPU time the process had used at one moment of a phase.
type tick struct{ at, cpu time.Duration }

// phase is one window of closed-loop load and what was recorded in it.
type phase struct {
	start   time.Time
	length  time.Duration
	cpu     time.Duration // process CPU time (user+sys) the window used
	samples [][]sample    // per client, in completion order
	ticks   []tick        // slice boundaries: the first at 0, the last at length
	slow    []float64     // per slice, the slowdown that is taken out of its values: slowdowns, or 1 in a raw loop
	failed  int
	err     error // the first failure
}

// cpuTime returns the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loop is a closed loop's shape: callers that each wait for their reply
// before they ask again.
type loop struct {
	clients int
	cycle   int // a client stops only where its counter is a multiple of cycle, so a fixed operation mix stays exact
	// raw leaves the measured values as they are. Through sockets, a
	// batch window's timer and a second caller, how long a repetition
	// takes is not only the machine's doing: its fastest repetition is a
	// lucky one, and what the others waited belongs in the numbers.
	raw bool
}

// drive runs the closed loop for dur. next holds every client's
// operation counter and is advanced, so consecutive phases continue one
// sequence. The recording buffers are allocated before the window opens:
// no workload here passes 20 000 operations a second per client. Client 0
// reads the process's CPU time once a slice (half a microsecond).
func (l loop) drive(dur time.Duration, next []int, op opFunc) *phase {
	p := &phase{samples: make([][]sample, l.clients)}
	for c := range p.samples {
		p.samples[c] = make([]sample, 0, int(dur.Seconds()*20000)+1024)
	}
	p.ticks = make([]tick, 1, int(dur/sliceLen)+16)
	errs := make([]error, l.clients)
	fails := make([]int, l.clients)

	cpu0 := cpuTime()
	p.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := next[c]
			for {
				t0 := time.Now()
				d, err := op(c, n)
				t1 := time.Now()
				at := t1.Sub(p.start)
				n++
				if err != nil {
					fails[c]++
					if errs[c] == nil {
						errs[c] = err
					}
				} else {
					p.samples[c] = append(p.samples[c], sample{at: at, v: float64(t1.Sub(t0)), done: d})
				}
				if c == 0 && at-p.ticks[len(p.ticks)-1].at >= sliceLen {
					p.ticks = append(p.ticks, tick{at, cpuTime() - cpu0})
				}
				if at >= dur && n%l.cycle == 0 {
					break
				}
			}
			next[c] = n
		}(c)
	}
	wg.Wait()
	p.length = time.Since(p.start)
	p.cpu = cpuTime() - cpu0
	p.ticks = append(p.ticks, tick{p.length, p.cpu})
	p.slow = p.slowdowns()
	if l.raw {
		for i := range p.slow {
			p.slow[i] = 1
		}
	}
	for c := range errs {
		p.failed += fails[c]
		if p.err == nil {
			p.err = errs[c]
		}
	}
	return p
}

// ops returns how many operations completed correctly in the phase.
func (p *phase) ops() int {
	n := 0
	for _, s := range p.samples {
		n += len(s)
	}
	return n
}

// pick returns the phase's samples that keep accepts, all clients merged.
func (p *phase) pick(keep func(sample) bool) []sample {
	var out []sample
	for _, cs := range p.samples {
		for _, s := range cs {
			if keep(s) {
				out = append(out, s)
			}
		}
	}
	return out
}

// holds reports whether a completion time falls inside the phase.
func (p *phase) holds(at time.Duration) bool { return at >= 0 && at <= p.length }

func ofKind(k uint8) func(sample) bool { return func(s sample) bool { return s.kind == k } }

// sliceOf returns the slice a completion time falls in.
func (p *phase) sliceOf(at time.Duration) int {
	i := sort.Search(len(p.ticks), func(i int) bool { return p.ticks[i].at >= at }) - 1
	return min(max(i, 0), len(p.ticks)-2)
}

// bySlice sorts the values of pts into the phase's slices.
func (p *phase) bySlice(pts []sample, val func(sample) float64) [][]float64 {
	out := make([][]float64, len(p.ticks)-1)
	for _, s := range pts {
		i := p.sliceOf(s.at)
		out[i] = append(out[i], val(s))
	}
	return out
}

// work names a piece of work: operations of one kind on one pool entry. A
// search of a just-replaced partition is other work than a repeat.
type work struct {
	kind  uint8
	key   int32
	fresh bool
}

// slowdowns returns, for every slice, by how much the machine slowed the
// program in it: the median, over the slice's operations that have a key
// (the searches), of latency ÷ the fastest repetition of the same work in
// the phase. NaN where a slice has no such operation. It is a median, so what a few
// operations of a slice pay (a GC pause, a retry) is not taken for the
// machine's doing.
func (p *phase) slowdowns() []float64 {
	keyed := p.pick(func(s sample) bool { return s.key >= 0 })
	fastest := make(map[work]float64)
	for _, s := range keyed {
		w := work{s.kind, s.key, s.fresh}
		if b, ok := fastest[w]; !ok || s.v < b {
			fastest[w] = s.v
		}
	}
	ratios := p.bySlice(keyed, func(s sample) float64 { return s.v / fastest[work{s.kind, s.key, s.fresh}] })
	out := make([]float64, len(ratios))
	for i, r := range ratios {
		out[i] = median(r).Value
	}
	return out
}

// stat is one metric value with what it was taken from.
type stat struct {
	Value float64
	N     int     // slices (or samples) behind the value
	Q25   float64 // quartiles of their values
	Q75   float64
}

// quantile reads the q-th quantile off sorted values, interpolating
// between neighbours.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median summarises values by their median and quartiles.
func median(vals []float64) stat {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return stat{Value: quantile(s, 0.5), N: len(s), Q25: quantile(s, 0.25), Q75: quantile(s, 0.75)}
}

// overSlices is the median over the phase's slices of value(i), for the
// slices that have one.
func (p *phase) overSlices(value func(i int) float64) stat {
	vals := make([]float64, 0, len(p.slow))
	for i := range p.slow {
		if v := value(i); !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// settled is the time statistic for values that come with an operation
// (latencies, the per-query sum of a span): per slice, the median of pts'
// values ÷ the slice's slowdown.
func (p *phase) settled(pts []sample) stat {
	vals := p.bySlice(pts, func(s sample) float64 { return s.v })
	return p.overSlices(func(i int) float64 { return median(vals[i]).Value / p.slow[i] })
}

// settledUs is settled for latencies: nanoseconds in, microseconds out.
func (p *phase) settledUs(pts []sample) stat { return p.settled(pts).times(1e-3) }

// rates are what every slice measured over all its operations, whatever
// their kind and caller: operations per second and CPU microseconds per
// operation.
func (p *phase) rates() (perSec, cpuUs []float64) {
	ops := p.bySlice(p.pick(func(sample) bool { return true }), func(sample) float64 { return 1 })
	perSec, cpuUs = make([]float64, len(ops)), make([]float64, len(ops))
	for i := range ops {
		n := float64(len(ops[i]))
		perSec[i] = n / (p.ticks[i+1].at - p.ticks[i].at).Seconds()
		cpuUs[i] = float64(p.ticks[i+1].cpu-p.ticks[i].cpu) / 1e3 / n
	}
	return perSec, cpuUs
}

func (s stat) times(f float64) stat {
	return stat{Value: s.Value * f, N: s.N, Q25: s.Q25 * f, Q75: s.Q75 * f}
}

// plain wraps a value that has no distribution behind it.
func plain(v float64) stat { return stat{Value: v, N: 1, Q25: v, Q75: v} }

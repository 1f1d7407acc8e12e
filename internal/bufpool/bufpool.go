// Package bufpool is the epoch-aware buffer pool of the beyond-RAM
// serving path (DESIGN.md §15): a capacity-bounded cache of immutable
// extent payloads with pin/unpin reference counting, CLOCK eviction and
// single-flight loads.
//
// The pool caches write-once data — a frame's bytes never change after
// load — so there is no dirty-page state and eviction is trivially
// safe: any unpinned frame can be dropped and re-read later. The only
// invariants are (1) a pinned frame is never evicted, and (2) resident
// bytes stay at or below capacity plus the pinned working set (pins may
// force transient overshoot; eviction reclaims unpinned frames as soon
// as they exist).
//
// Epoch-awareness lives in the keying discipline, not in the pool: a
// frame id names one immutable partition epoch's extent, so a query
// that pinned epoch e keeps scanning e's bytes even while a mutator
// publishes e+1 under a different id — the pool never has to
// invalidate, only to forget ids whose epoch became garbage (Forget).
package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Loader reads one extent payload by id. It is called outside the pool
// lock, at most once per id at a time (single-flight): concurrent Pins
// of the same id share one load.
type Loader func(id string) ([]byte, error)

// Stats is the pool's counter snapshot.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	ResidentBytes int64 `json:"resident_bytes"`
	PinnedBytes   int64 `json:"pinned_bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Frames        int   `json:"frames"`
}

// frame is one resident (or loading) payload.
type frame struct {
	id   string
	buf  []byte
	pins int
	ref  bool // CLOCK reference bit

	// loading is non-nil while the single-flight load is in progress;
	// waiters block on it. err holds a failed load's error.
	loading chan struct{}
	err     error
}

// Pool is a capacity-bounded CLOCK cache of immutable payloads.
type Pool struct {
	load Loader

	mu       sync.Mutex
	capacity int64
	frames   map[string]*frame
	clock    []*frame // eviction ring; nil slots are compacted lazily
	hand     int
	resident int64
	pinned   int64 // bytes of frames with pins > 0

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// onEvict, when set, observes every evicted buffer after it leaves
	// the pool. Tests use it to poison evicted frames and prove no scan
	// path holds payload bytes past its pin.
	onEvict func(id string, buf []byte)
}

// Option configures a Pool.
type Option func(*Pool)

// WithEvictHook installs fn to be called (outside the pool lock) with
// every evicted frame's id and buffer.
func WithEvictHook(fn func(id string, buf []byte)) Option {
	return func(p *Pool) { p.onEvict = fn }
}

// New returns a pool bounded at capBytes that fills misses through
// load.
func New(capBytes int64, load Loader, opts ...Option) *Pool {
	if capBytes <= 0 {
		panic("bufpool: non-positive capacity")
	}
	p := &Pool{load: load, capacity: capBytes, frames: make(map[string]*frame)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Pin returns the payload for id, loading it on a miss, and holds a
// reference: the frame cannot be evicted until the matching Unpin. The
// returned buffer aliases the pool frame and must not be retained or
// read after Unpin.
func (p *Pool) Pin(id string) ([]byte, error) {
	p.mu.Lock()
	for {
		f, ok := p.frames[id]
		if !ok {
			break
		}
		if f.loading == nil {
			// Resident hit.
			f.pins++
			if f.pins == 1 {
				p.pinned += int64(len(f.buf))
			}
			f.ref = true
			p.mu.Unlock()
			p.hits.Add(1)
			return f.buf, nil
		}
		// Load in flight: wait and retry (the loader may have failed,
		// in which case the frame is gone and we start a fresh load).
		ch := f.loading
		p.mu.Unlock()
		<-ch
		if f.err != nil {
			return nil, f.err
		}
		p.mu.Lock()
	}

	// Miss: install a loading frame, then load outside the lock.
	f := &frame{id: id, loading: make(chan struct{})}
	p.frames[id] = f
	p.mu.Unlock()
	p.misses.Add(1)

	buf, err := p.load(id)

	p.mu.Lock()
	if err != nil {
		f.err = err
		delete(p.frames, id)
		close(f.loading)
		p.mu.Unlock()
		return nil, err
	}
	f.buf = buf
	f.pins = 1
	f.ref = true
	p.resident += int64(len(buf))
	p.pinned += int64(len(buf))
	p.clock = append(p.clock, f)
	evicted := p.evictLocked()
	close(f.loading)
	f.loading = nil
	p.mu.Unlock()
	p.notifyEvicted(evicted)
	return buf, nil
}

// Unpin releases one reference on id. It panics on unbalanced calls —
// an unpin without a pin is a lifetime bug on the scan path.
func (p *Pool) Unpin(id string) {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok || f.pins <= 0 {
		p.mu.Unlock()
		panic(fmt.Sprintf("bufpool: Unpin(%q) without matching Pin", id))
	}
	f.pins--
	if f.pins == 0 {
		p.pinned -= int64(len(f.buf))
	}
	evicted := p.evictLocked()
	p.mu.Unlock()
	p.notifyEvicted(evicted)
}

// Forget drops id's frame if it is resident and unpinned — the GC hook
// for extents whose epoch became garbage. A pinned or loading frame is
// left alone (its pin holder still reads it; it will be forgotten by
// capacity pressure once released, and its file removal does not need
// the frame gone).
func (p *Pool) Forget(id string) {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok || f.pins > 0 || f.loading != nil {
		p.mu.Unlock()
		return
	}
	p.dropLocked(f)
	p.mu.Unlock()
	p.notifyEvicted([]*frame{f})
}

// Stats returns a counter snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := Stats{
		ResidentBytes: p.resident,
		PinnedBytes:   p.pinned,
		CapacityBytes: p.capacity,
		Frames:        len(p.frames),
	}
	p.mu.Unlock()
	s.Hits = p.hits.Load()
	s.Misses = p.misses.Load()
	s.Evictions = p.evictions.Load()
	return s
}

// evictLocked runs the CLOCK hand until resident <= capacity or every
// remaining frame is pinned, returning the evicted frames for the
// post-unlock hook. Frames get one second chance: the hand clears a set
// reference bit and moves on, evicting frames whose bit is already
// clear.
func (p *Pool) evictLocked() []*frame {
	if p.resident <= p.capacity {
		return nil
	}
	var evicted []*frame
	// skips counts consecutive hand steps that made no eviction: between
	// evictions the hand visits each frame at most twice (clear the ref
	// bit, then evict), so once skips exceeds 2·len every remaining frame
	// is pinned or loading and the pool is allowed to overshoot by the
	// pinned working set.
	skips := 0
	for p.resident > p.capacity && len(p.clock) > 0 && skips <= 2*len(p.clock) {
		if p.hand >= len(p.clock) {
			p.hand = 0
		}
		f := p.clock[p.hand]
		if f == nil {
			// Compact a lazily-removed slot (strictly shrinks the ring).
			p.clock = append(p.clock[:p.hand], p.clock[p.hand+1:]...)
			continue
		}
		if f.pins > 0 || f.loading != nil {
			p.hand++
			skips++
			continue
		}
		if f.ref {
			f.ref = false
			p.hand++
			skips++
			continue
		}
		p.dropLocked(f)
		p.evictions.Add(1)
		evicted = append(evicted, f)
		skips = 0
	}
	return evicted
}

// dropLocked removes f from the map, resident accounting and the clock
// ring (lazily: its slot is nilled and compacted when the hand passes).
func (p *Pool) dropLocked(f *frame) {
	delete(p.frames, f.id)
	p.resident -= int64(len(f.buf))
	for i := range p.clock {
		if p.clock[i] == f {
			p.clock[i] = nil
			break
		}
	}
}

func (p *Pool) notifyEvicted(frames []*frame) {
	if p.onEvict == nil {
		return
	}
	for _, f := range frames {
		if f != nil {
			p.onEvict(f.id, f.buf)
		}
	}
}

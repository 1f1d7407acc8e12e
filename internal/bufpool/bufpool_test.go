package bufpool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// makeLoader returns a loader serving size-byte buffers stamped with
// their id, counting loads per id.
func makeLoader(size int, loads *sync.Map) Loader {
	return func(id string) ([]byte, error) {
		n, _ := loads.LoadOrStore(id, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = id[len(id)-1]
		}
		return buf, nil
	}
}

func TestHitMissEvict(t *testing.T) {
	var loads sync.Map
	p := New(250, makeLoader(100, &loads)) // room for 2 frames

	for _, id := range []string{"a", "b"} {
		buf, err := p.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != id[0] {
			t.Fatalf("wrong payload for %s", id)
		}
		p.Unpin(id)
	}
	if s := p.Stats(); s.Misses != 2 || s.Hits != 0 || s.ResidentBytes != 200 {
		t.Fatalf("after two loads: %+v", s)
	}

	// Re-pin a: hit, no load.
	if _, err := p.Pin("a"); err != nil {
		t.Fatal(err)
	}
	p.Unpin("a")
	if s := p.Stats(); s.Hits != 1 {
		t.Fatalf("expected a hit: %+v", s)
	}

	// Third frame forces an eviction.
	if _, err := p.Pin("c"); err != nil {
		t.Fatal(err)
	}
	p.Unpin("c")
	s := p.Stats()
	if s.Evictions == 0 || s.ResidentBytes > s.CapacityBytes {
		t.Fatalf("after overflow: %+v", s)
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	var loads sync.Map
	var evicted sync.Map
	p := New(150, makeLoader(100, &loads), WithEvictHook(func(id string, _ []byte) {
		evicted.Store(id, true)
	}))

	bufA, err := p.Pin("a")
	if err != nil {
		t.Fatal(err)
	}
	// b overflows the pool while a is pinned: a must survive.
	if _, err := p.Pin("b"); err != nil {
		t.Fatal(err)
	}
	p.Unpin("b")
	if _, ok := evicted.Load("a"); ok {
		t.Fatal("pinned frame evicted")
	}
	if bufA[0] != 'a' {
		t.Fatal("pinned buffer clobbered")
	}
	s := p.Stats()
	if s.ResidentBytes > s.CapacityBytes+s.PinnedBytes {
		t.Fatalf("invariant violated: %+v", s)
	}
	p.Unpin("a")
}

// TestSingleFlight pins one id from many goroutines; the loader must
// run exactly once.
func TestSingleFlight(t *testing.T) {
	var loads sync.Map
	p := New(1<<20, makeLoader(64, &loads))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, err := p.Pin("x")
			if err != nil {
				t.Error(err)
				return
			}
			if buf[0] != 'x' {
				t.Error("bad payload")
			}
			p.Unpin("x")
		}()
	}
	wg.Wait()
	n, _ := loads.Load("x")
	if got := n.(*atomic.Int64).Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1 (single-flight)", got)
	}
}

// TestLoadErrorRetried: a failed load does not poison the id.
func TestLoadErrorRetried(t *testing.T) {
	fail := true
	p := New(1<<20, func(id string) ([]byte, error) {
		if fail {
			return nil, errors.New("disk gone")
		}
		return []byte{42}, nil
	})
	if _, err := p.Pin("x"); err == nil {
		t.Fatal("expected load error")
	}
	fail = false
	buf, err := p.Pin("x")
	if err != nil || buf[0] != 42 {
		t.Fatalf("retry after failed load: %v %v", buf, err)
	}
	p.Unpin("x")
}

func TestForget(t *testing.T) {
	var loads sync.Map
	p := New(1<<20, makeLoader(100, &loads))
	if _, err := p.Pin("a"); err != nil {
		t.Fatal(err)
	}
	// Pinned: Forget is a no-op.
	p.Forget("a")
	if s := p.Stats(); s.Frames != 1 {
		t.Fatalf("pinned frame forgotten: %+v", s)
	}
	p.Unpin("a")
	p.Forget("a")
	if s := p.Stats(); s.Frames != 0 || s.ResidentBytes != 0 {
		t.Fatalf("frame not forgotten: %+v", s)
	}
	// Forget of an absent id is fine.
	p.Forget("never-seen")
}

// TestInvariantUnderStorm hammers a small pool from many goroutines
// with overlapping pins and checks resident <= capacity + pinned at
// every observation point. Run with -race in CI.
func TestInvariantUnderStorm(t *testing.T) {
	var loads sync.Map
	p := New(500, makeLoader(100, &loads))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("f%d", (g*7+i*3)%16)
				buf, err := p.Pin(id)
				if err != nil {
					t.Error(err)
					return
				}
				if buf[0] != id[len(id)-1] {
					t.Errorf("stale or poisoned payload for %s", id)
				}
				s := p.Stats()
				if s.ResidentBytes > s.CapacityBytes+s.PinnedBytes {
					t.Errorf("invariant violated: %+v", s)
				}
				p.Unpin(id)
			}
		}(g)
	}
	wg.Wait()
}

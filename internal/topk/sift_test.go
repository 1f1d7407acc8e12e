package topk

import (
	"slices"
	"testing"

	"pqfastscan/internal/rng"
)

// swapHeap is the textbook bounded max-heap Heap replaced: swap-based
// sifts that compare (distance, id) at every step. It is kept here as
// the reference the hole-moving sifts must match slot for slot.
type swapHeap struct {
	k     int
	items []Result
}

func (h *swapHeap) push(id int64, dist float32) bool {
	c := Result{ID: id, Distance: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !worse(h.items[0], c) {
		return false
	}
	h.items[0] = c
	h.siftDown(0)
	return true
}

func (h *swapHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *swapHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(h.items[l], h.items[largest]) {
			largest = l
		}
		if r < n && worse(h.items[r], h.items[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// TestSiftMatchesSwapReference runs Heap and the swap-sift reference
// push by push over random streams in which distances and ids collide
// often — equal distances with different ids, one id at two distances,
// and whole repeated (distance, id) pairs — and holds every Push
// return, Threshold, Worst, Len, every array slot and the final sorted
// results equal. Pruning, Stats and MergeResults see only these, so
// they cannot tell the two heaps apart.
func TestSiftMatchesSwapReference(t *testing.T) {
	r := rng.New(38)
	for _, k := range []int{1, 2, 3, 7, 100} {
		for trial := 0; trial < 60; trial++ {
			n := r.Intn(40*k) + 1
			// Few distinct distances and ids: ties between siblings, and
			// between a sibling and the pushed candidate, are common.
			levels, ids := r.Intn(2*k)+1, r.Intn(3*k)+1
			h, ref := New(k), &swapHeap{k: k}
			for i := 0; i < n; i++ {
				d := float32(r.Intn(levels))
				if r.Intn(4) == 0 {
					d = float32(r.Float64() * float64(levels))
				}
				id := int64(r.Intn(ids))
				if got, want := h.Push(id, d), ref.push(id, d); got != want {
					t.Fatalf("k=%d trial %d push %d (%d, %v): Push = %v, reference %v", k, trial, i, id, d, got, want)
				}
				if !slices.Equal(h.items, ref.items) {
					t.Fatalf("k=%d trial %d push %d (%d, %v): slots\n%v\nreference\n%v", k, trial, i, id, d, h.items, ref.items)
				}
				if h.Len() != len(ref.items) {
					t.Fatalf("k=%d trial %d push %d: Len = %d, reference %d", k, trial, i, h.Len(), len(ref.items))
				}
				thr, full := h.Threshold()
				worst, ok := h.Worst()
				if full != (len(ref.items) == k) || (full && thr != ref.items[0].Distance) || !ok || worst != ref.items[0].Distance {
					t.Fatalf("k=%d trial %d push %d: Threshold = %v, %v, Worst = %v, %v; reference root %v of %d",
						k, trial, i, thr, full, worst, ok, ref.items[0], len(ref.items))
				}
			}
			want := (&Heap{k: k, items: ref.items}).AppendResults(nil)
			if got := h.AppendResults(nil); !slices.Equal(got, want) {
				t.Fatalf("k=%d trial %d: results\n%v\nreference\n%v", k, trial, got, want)
			}
		}
	}
}

// BenchmarkPushStream is one served k = 100 query's top-k work: a
// random-order stream of 4 740 candidate distances (the served scan's
// re-checked candidates a query, BenchmarkServedScan's cand/query),
// each offered the way the scan offers it — skipped when the heap is
// full and it lies above the threshold, pushed otherwise. That is about
// 485 pushes a query.
func BenchmarkPushStream(b *testing.B) {
	const k, n, streams = 100, 4740, 64
	r := rng.New(1)
	dists := make([][]float32, streams)
	for s := range dists {
		dists[s] = make([]float32, n)
		for i := range dists[s] {
			dists[s][i] = float32(r.Float64())
		}
	}
	h := New(k)
	pushes := 0
	b.ResetTimer()
	for q := 0; q < b.N; q++ {
		h.Reset(k)
		thr, full := h.Threshold()
		for i, d := range dists[q%streams] {
			if full && d > thr {
				continue
			}
			pushes++
			if h.Push(int64(i), d) {
				thr, full = h.Threshold()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
	b.ReportMetric(float64(pushes)/float64(b.N), "push/query")
}

package topk

import (
	"math"
	"slices"
	"testing"

	"pqfastscan/internal/rng"
)

// swapHeap is the textbook bounded max-heap: swap-based sifts that
// compare (distance, id) at every step. It is kept here as the
// reference the tournament tree must match push for push.
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

// worse reports whether a should be evicted before b (a is strictly
// worse): the order the tree's keys and their id fallback (after) keep.
func worse(a, b Result) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

// compare orders results by ascending distance, ties by ascending id:
// the order of Results and of MergeResults.
func compare(a, b Result) int {
	switch {
	case worse(b, a):
		return -1
	case worse(a, b):
		return 1
	}
	return 0
}

// TestPushMatchesSwapReference runs Heap and the swap-sift reference
// push by push over random streams in which distances and ids collide
// often — equal distances with different ids, -0 beside +0, one id at
// two distances, and whole repeated (distance, id) pairs — and holds
// every Push return, Threshold, Worst, Len and the final sorted results
// equal. Pruning, Stats and MergeResults see only these, so they cannot
// tell the two apart. k = 128 fills every leaf of its tree, k = 129
// pads 127.
func TestPushMatchesSwapReference(t *testing.T) {
	r := rng.New(38)
	for _, k := range []int{1, 2, 3, 7, 100, 128, 129} {
		for trial := 0; trial < 60; trial++ {
			n := r.Intn(40*k) + 1
			// Few distinct distances and ids: ties between the candidate
			// and the winner, and within the tree, are common.
			levels, ids := r.Intn(2*k)+1, r.Intn(3*k)+1
			h, ref := New(k), &swapHeap{k: k}
			for i := 0; i < n; i++ {
				d := float32(r.Intn(levels))
				if r.Intn(4) == 0 {
					d = float32(r.Float64() * float64(levels))
				}
				if d == 0 && r.Intn(2) == 0 {
					d = float32(math.Copysign(0, -1))
				}
				id := int64(r.Intn(ids))
				if got, want := h.Push(id, d), ref.push(id, d); got != want {
					t.Fatalf("k=%d trial %d push %d (%d, %v): Push = %v, reference %v", k, trial, i, id, d, got, want)
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
			want := slices.SortedFunc(slices.Values(ref.items), compare)
			if got := h.AppendResults(nil); !slices.Equal(got, want) {
				t.Fatalf("k=%d trial %d: results\n%v\nreference\n%v", k, trial, got, want)
			}
		}
	}
}

// TestKeyOrderMatchesWorse: for two results in two leaves, after on
// their keys is worse on the results, both ways round, over every pair
// of a set of special distances (±0, ±subnormals, ±MaxFloat32, ±Inf,
// negative values) and random ones, with ids from a small set so equal
// ids meet at equal distances too.
func TestKeyOrderMatchesWorse(t *testing.T) {
	neg0 := float32(math.Copysign(0, -1))
	dists := []float32{
		0, neg0, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff), // largest subnormal
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		1, -1, -0.5, -1e-30, 1e-30,
	}
	r := rng.New(53)
	for range 40 {
		d := float32(r.Float64()*4 - 2)
		dists = append(dists, d, -d)
	}
	var rs []Result
	for _, d := range dists {
		for id := range int64(3) {
			rs = append(rs, Result{ID: id - 1, Distance: d})
		}
	}
	for _, a := range rs {
		for _, b := range rs {
			ids := []uint64{uint64(a.ID), uint64(b.ID)}
			ka, kb := key(a.Distance, 0), key(b.Distance, 1)
			if got, want := after(ids, ka, kb), worse(a, b); got != want {
				t.Fatalf("after(%v, %v) = %v, worse = %v (keys %#x, %#x)", a, b, got, want, ka, kb)
			}
			if got, want := after(ids, kb, ka), worse(b, a); got != want {
				t.Fatalf("after(%v, %v) = %v, worse = %v (keys %#x, %#x)", b, a, got, want, kb, ka)
			}
		}
	}
}

// BenchmarkPushStream is one served k = 100 query's top-k work: a
// random-order stream of 4 740 candidate distances (the re-checks a
// served query pays under the minimum tables, BenchmarkServedScan's
// cand/query on asm-avx2; the exact bound of asm-avx512vbmi leaves
// 645), each offered the way the scan offers it — skipped when the heap
// is full and it lies above the threshold, pushed otherwise. That is
// about 485 pushes a query.
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

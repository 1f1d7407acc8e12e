// Package topk provides the bounded max-heap that every scan kernel uses
// to maintain its current top-k nearest neighbor candidates.
//
// The paper describes scans returning a single nearest neighbor for
// clarity but notes that "In practice, they return multiple nearest
// neighbors e.g., topk = 100 for information retrieval in multimedia
// databases" (§5.1). The pruning threshold of PQ Fast Scan is the distance
// of the current topk-th neighbor (§5.4), which is exactly the root of
// this heap once it is full.
//
// Tie handling is deterministic (larger id evicted first on equal
// distance) so that all three kernels return bit-identical result sets,
// the exactness invariant of DESIGN.md §6.
package topk

import "slices"

// Result is one neighbor candidate.
type Result struct {
	ID       int64
	Distance float32
}

// Heap is a bounded max-heap of the k best (smallest-distance) results
// seen so far. The zero value is unusable; call New.
type Heap struct {
	k     int
	items []Result
}

// New returns a heap retaining the k smallest-distance results.
func New(k int) *Heap {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Heap{k: k, items: make([]Result, 0, k)}
}

// K returns the heap capacity.
func (h *Heap) K() int { return h.k }

// Reset reinitializes the heap for a new query retaining the k best
// results, reusing the backing array when it is large enough. It is the
// allocation-free counterpart of New for callers that run many queries
// through per-searcher scratch state (internal/scan).
func (h *Heap) Reset(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	h.k = k
	if cap(h.items) < k {
		h.items = make([]Result, 0, k)
	} else {
		h.items = h.items[:0]
	}
}

// Len returns the number of results currently held.
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether k results have been collected.
func (h *Heap) Full() bool { return len(h.items) == h.k }

// Threshold returns the current pruning threshold: the distance of the
// worst retained result once the heap is full, or +Inf semantics via ok
// being false while it is not.
func (h *Heap) Threshold() (dist float32, ok bool) {
	if !h.Full() {
		return 0, false
	}
	return h.items[0].Distance, true
}

// worse reports whether a should be evicted before b (a is strictly worse).
func worse(a, b Result) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

// Best returns the smallest distance currently retained. ok is false when
// the heap is empty. PQ Fast Scan uses the best distance after its keep
// phase as the quantization bound qmax (§4.4: "We then use the distance
// between the query vector and this temporary nearest neighbor as qmax").
func (h *Heap) Best() (dist float32, ok bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	best := h.items[0].Distance
	for _, it := range h.items[1:] {
		if it.Distance < best {
			best = it.Distance
		}
	}
	return best, true
}

// Worst returns the largest distance currently retained (the heap root),
// regardless of whether the heap is full. ok is false when it is empty.
// PQ Fast Scan uses it as the quantization bound when the keep phase
// holds fewer than k temporary neighbors: the eventual topk-th distance
// cannot usefully exceed the worst temporary distance's scale, so the
// quantized range stays relevant without collapsing to the top-1 bound.
func (h *Heap) Worst() (dist float32, ok bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].Distance, true
}

// Push offers a candidate. It returns true if the candidate was retained.
func (h *Heap) Push(id int64, dist float32) bool {
	c := Result{ID: id, Distance: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		h.siftUp(c)
		return true
	}
	if !worse(h.items[0], c) {
		return false
	}
	h.replaceRoot(c)
	return true
}

// Accepts reports whether a candidate at dist would be retained if pushed,
// without modifying the heap. Scan kernels use it as the pruning test.
func (h *Heap) Accepts(dist float32) bool {
	if len(h.items) < h.k {
		return true
	}
	return dist <= h.items[0].Distance
}

// siftUp places c, just appended, by moving a hole up from the last
// slot: each parent c is worse than comes down one level, and c is
// stored once, where the hole stops.
func (h *Heap) siftUp(c Result) {
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(c, items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = c
}

// replaceRoot evicts the root for c by moving a hole down from the root:
// the worse child of the hole moves up while it is worse than c, and c is
// stored once, where the hole stops. The worse child is picked without a
// branch on distance; ids are compared only when the two children's
// distances are equal. Every slot ends where the textbook swap-based
// sift would put it (the reference in sift_test.go).
func (h *Heap) replaceRoot(c Result) {
	items := h.items
	n := len(items)
	i := 0
	for {
		l := 2*i + 1
		if l+1 >= n {
			break
		}
		dl, dr := items[l].Distance, items[l+1].Distance
		m := l + b2i(dr > dl)
		if dr == dl && items[l+1].ID > items[l].ID {
			m = l + 1
		}
		if !worse(items[m], c) {
			break
		}
		items[i] = items[m]
		i = m
	}
	// The hole may have reached the one node with a left child only.
	if l := 2*i + 1; l == n-1 && worse(items[l], c) {
		items[i] = items[l]
		i = l
	}
	items[i] = c
}

// b2i is 1 for true and 0 for false; the compiler emits a SETcc, not a
// branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// Results returns the retained results sorted by ascending distance
// (ties by ascending id). The heap is unchanged.
func (h *Heap) Results() []Result {
	return h.AppendResults(nil)
}

// MergeResults merges per-source top-k lists into one global top-k — the
// deterministic merge of scatter-gather cluster serving, where each list
// is one shard's (or replica's) answer over its cells. Candidates are
// deduplicated by id first: the same id can arrive twice when a hedged
// replica answers from a different snapshot epoch during failover, and
// the smaller distance wins (ties are the same candidate). The retained
// set of the bounded heap is the k smallest (distance, id) pairs of the
// deduplicated union regardless of list order or arrival interleaving,
// so a router merging shard answers returns exactly what a single node
// scanning the union of their cells would. k larger than the total
// number of distinct hits returns them all.
func MergeResults(k int, lists ...[]Result) []Result {
	best := make(map[int64]float32)
	for _, list := range lists {
		for _, r := range list {
			if d, ok := best[r.ID]; !ok || r.Distance < d {
				best[r.ID] = r.Distance
			}
		}
	}
	h := New(k)
	for id, d := range best {
		h.Push(id, d)
	}
	return h.Results()
}

// AppendResults appends the sorted results to dst (which may be a reused
// buffer, typically dst[:0]) and returns the extended slice. The heap is
// unchanged. Like Results but allocation-free once dst has capacity.
func (h *Heap) AppendResults(dst []Result) []Result {
	start := len(dst)
	dst = append(dst, h.items...)
	slices.SortFunc(dst[start:], func(a, b Result) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		if a.ID != b.ID {
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
	return dst
}

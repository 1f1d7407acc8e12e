// Package topk provides the bounded top-k structure that every scan
// kernel uses to maintain its current top-k nearest neighbor candidates.
//
// The paper describes scans returning a single nearest neighbor for
// clarity but notes that "In practice, they return multiple nearest
// neighbors e.g., topk = 100 for information retrieval in multimedia
// databases" (§5.1). The pruning threshold of PQ Fast Scan is the distance
// of the current topk-th neighbor (§5.4), which is exactly the winner of
// this structure's tournament once it is full.
//
// Tie handling is deterministic (larger id evicted first on equal
// distance) so that all three kernels return bit-identical result sets,
// the exactness invariant of DESIGN.md §6.
package topk

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Result is one neighbor candidate, and one neighbor of a /search
// reply on the wire.
type Result struct {
	ID       int64   `json:"id"`
	Distance float32 `json:"distance"`
}

// Heap retains the k best (smallest-distance) results seen so far, the
// worst of them on top. It is a tournament tree of losers (Knuth, TAOCP
// vol. 3, §5.4.1) over k leaves padded to a power of two, p. Leaf i
// holds a result; a result's key is its distance's order bits (orderBits)
// in the high half and i in the low half. Internal node j in [1, p),
// whose children are 2j and 2j+1 (leaf i is node p+i), keeps the key of
// the better result of the match played there; keys[0] keeps the winner,
// the worst retained result. A full tree replaces the winner's leaf and
// replays the matches on its path to the root. The zero value is
// unusable; call New.
type Heap struct {
	k, n int
	// keys, order, ids and dists share one allocation (Reset reuses it):
	// the tree, AppendResults' sort scratch, and each leaf's id and
	// distance bits.
	keys, order, ids, dists []uint64
}

// New returns a heap retaining the k smallest-distance results.
func New(k int) *Heap {
	h := new(Heap)
	h.Reset(k)
	return h
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
	p := 1 << bits.Len(uint(k-1))
	buf := h.keys[:cap(h.keys)]
	if len(buf) < 4*p {
		buf = make([]uint64, 4*p)
	}
	h.k, h.n = k, 0
	h.keys, h.order, h.ids, h.dists = buf[:p], buf[p:2*p], buf[2*p:3*p], buf[3*p:4*p]
}

// Len returns the number of results currently held.
func (h *Heap) Len() int { return h.n }

// Full reports whether k results have been collected.
func (h *Heap) Full() bool { return h.n == h.k }

// Threshold returns the current pruning threshold: the distance of the
// worst retained result once the heap is full, or +Inf semantics via ok
// being false while it is not.
func (h *Heap) Threshold() (dist float32, ok bool) {
	if !h.Full() {
		return 0, false
	}
	return h.dist(h.keys[0]), true
}

// Worst returns the largest distance currently retained (the winner),
// regardless of whether the heap is full. ok is false when it is empty.
// PQ Fast Scan uses it as the quantization bound when the keep phase
// holds fewer than k temporary neighbors: the eventual topk-th distance
// cannot usefully exceed the worst temporary distance's scale, so the
// quantized range stays relevant without collapsing to the top-1 bound.
func (h *Heap) Worst() (dist float32, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	return h.dist(h.keys[0]), true
}

// orderBits maps a distance to bits whose unsigned order is the
// distance's: 2³¹ plus the magnitude for a positive value, minus it for
// a negative one, so -0 and +0 both map to 2³¹. Every float32 maps into
// [1, 2³²), which leaves 0 to the padding leaves.
func orderBits(d float32) uint64 {
	b := math.Float32bits(d)
	s := uint32(int32(b) >> 31) // all ones for a negative value
	return uint64(1<<31 + (b&(1<<31-1) ^ s) - s)
}

// key is the key of distance d in leaf i.
func key(d float32, i int) uint64 { return orderBits(d)<<32 | uint64(i) }

// low is the leaf index half of a key.
const low = 1<<32 - 1

// dist returns the distance of the leaf key a names.
func (h *Heap) dist(a uint64) float32 {
	return math.Float32frombits(uint32(h.dists[a&low]))
}

// after reports whether the result of key a is evicted before that of
// key b, the leaves' ids in ids: a larger distance, or the larger id at
// an equal one. Keys of two leaves never compare equal, so the unsigned
// compare decides unless the high halves tie.
func after(ids []uint64, a, b uint64) bool {
	gt := a > b
	if (a^b)>>32 == 0 {
		gt = int64(ids[a&low]) > int64(ids[b&low])
	}
	return gt
}

// Push offers a candidate. It returns true if the candidate was retained.
func (h *Heap) Push(id int64, dist float32) bool {
	if h.n < h.k {
		h.fill(id, dist)
		return true
	}
	keys, ids := h.keys, h.ids
	w := keys[0]
	i := w & low
	c := orderBits(dist)<<32 | i
	// c and w share a low half: c > w is a larger distance, c == w an
	// equal one.
	if c > w || c == w && int64(ids[i]) <= id {
		return false
	}
	ids[i], h.dists[i] = uint64(id), uint64(math.Float32bits(dist))
	// Replay the winner's path: at each node the worse of c and the key
	// kept there goes on up, the better stays, swapped by an xor mask.
	for j := (uint64(len(keys)) + i) >> 1; j > 0; j >>= 1 {
		o := keys[j]
		x := (o ^ c) & -b2u(after(ids, o, c))
		keys[j] = o ^ x
		c ^= x
	}
	keys[0] = c
	return true
}

// fill stores the candidate in the next free leaf, keeping keys[0] the
// worst so far, and plays the tournament once the k-th leaf is filled.
func (h *Heap) fill(id int64, dist float32) {
	i := h.n
	h.ids[i], h.dists[i] = uint64(id), uint64(math.Float32bits(dist))
	if c := key(dist, i); i == 0 || after(h.ids, c, h.keys[0]) {
		h.keys[0] = c
	}
	h.n++
	if h.n == h.k {
		h.build()
	}
}

// build plays every match of a full tree, a level at a time from the
// leaves up. order holds the winners of the level below: first the leaf
// keys (a padding leaf's key is its index, below every result's), then,
// for a level of m nodes, each match's winner at its position in [0, m).
func (h *Heap) build() {
	keys, win := h.keys, h.order
	for i := range win {
		win[i] = uint64(i)
		if i < h.k {
			win[i] = key(h.dist(uint64(i)), i)
		}
	}
	for m := len(keys) / 2; m > 0; m /= 2 {
		for j := range m {
			a, b := win[2*j], win[2*j+1]
			if after(h.ids, b, a) {
				a, b = b, a
			}
			keys[m+j], win[j] = b, a
		}
	}
	keys[0] = win[0]
}

// b2u is 1 for true and 0 for false; the compiler emits a SETcc, not a
// branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// Results returns the retained results sorted by ascending distance
// (ties by ascending id). The heap is unchanged.
func (h *Heap) Results() []Result {
	return h.AppendResults(nil)
}

// AppendResults appends the sorted results to dst (which may be a reused
// buffer, typically dst[:0]) and returns the extended slice. The retained
// results are unchanged; only the sort scratch is written. Like Results
// but allocation-free once dst has capacity.
func (h *Heap) AppendResults(dst []Result) []Result {
	keys := h.order[:h.n]
	for i := range keys {
		keys[i] = key(h.dist(uint64(i)), i)
	}
	slices.Sort(keys)
	start := len(dst)
	dst = slices.Grow(dst, len(keys))
	for _, a := range keys {
		dst = append(dst, Result{ID: int64(h.ids[a&low]), Distance: h.dist(a)})
	}
	idOrderTies(dst[start:], keys)
	return dst
}

// MergeResults merges per-source top-k lists into one global top-k — the
// deterministic merge of scatter-gather cluster serving, where each list
// is one shard's (or replica's) answer over its cells. Candidates are
// deduplicated by id: the same id can arrive twice when a hedged
// replica answers from a different snapshot epoch during failover, and
// the smaller distance wins (ties are the same candidate). The answer
// is the k smallest (distance, id) pairs of the deduplicated union —
// the retained set of one bounded heap over it — regardless of list
// order or of the order within a list, so a router merging shard
// answers returns exactly what a single node scanning the union of
// their cells would. k larger than the total number of distinct hits
// returns them all; no hits at all return nil, as Results does.
func MergeResults(k int, lists ...[]Result) []Result {
	all := slices.Concat(lists...)
	if len(all) == 0 {
		return nil
	}
	// Sorted by key (the index into all in the low half), then equal
	// distances by id: the order of Results.
	keys := make([]uint64, len(all))
	for i, r := range all {
		keys[i] = key(r.Distance, i)
	}
	slices.Sort(keys)
	sorted := make([]Result, len(all))
	for i, a := range keys {
		sorted[i] = all[a&low]
	}
	idOrderTies(sorted, keys)
	// Sorted, an id's first copy is its smallest distance.
	seen := make(map[int64]struct{}, min(k, len(sorted)))
	out := sorted[:0]
	for _, r := range sorted {
		if len(out) == k {
			break
		}
		if _, dup := seen[r.ID]; !dup {
			seen[r.ID] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}

// idOrderTies sorts by id each run of rs whose keys, sorted, share a
// high half — the results at one distance; rs[i] is the result of
// keys[i].
func idOrderTies(rs []Result, keys []uint64) {
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && (keys[j]^keys[i])>>32 == 0 {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(rs[i:j], func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })
		}
		i = j
	}
}

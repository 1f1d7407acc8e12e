package topk

import (
	"sort"
	"testing"
	"testing/quick"

	"pqfastscan/internal/rng"
)

// reference computes the expected top-k by full sort with the same tie
// rule (ascending distance, then ascending id).
func reference(items []Result, k int) []Result {
	sorted := append([]Result(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Distance != sorted[j].Distance {
			return sorted[i].Distance < sorted[j].Distance
		}
		return sorted[i].ID < sorted[j].ID
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func TestMatchesSortReference(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300) + 1
		k := r.Intn(50) + 1
		items := make([]Result, n)
		for i := range items {
			items[i] = Result{ID: int64(r.Intn(40)), Distance: float32(r.Intn(25))}
		}
		h := New(k)
		for _, it := range items {
			h.Push(it.ID, it.Distance)
		}
		got := h.Results()
		want := reference(items, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestThresholdIsKthBest(t *testing.T) {
	h := New(3)
	if _, ok := h.Threshold(); ok {
		t.Fatal("threshold available on non-full heap")
	}
	h.Push(1, 10)
	h.Push(2, 5)
	if _, ok := h.Threshold(); ok {
		t.Fatal("threshold available with 2 of 3 results")
	}
	h.Push(3, 7)
	if thr, ok := h.Threshold(); !ok || thr != 10 {
		t.Fatalf("threshold = %v,%v; want 10,true", thr, ok)
	}
	h.Push(4, 6)
	if thr, _ := h.Threshold(); thr != 7 {
		t.Fatalf("threshold after improvement = %v, want 7", thr)
	}
}

func TestTieEvictsLargerID(t *testing.T) {
	h := New(2)
	h.Push(5, 1.0)
	h.Push(7, 1.0)
	// Same distance, smaller id: must replace id 7.
	if !h.Push(3, 1.0) {
		t.Fatal("tie candidate with smaller id rejected")
	}
	res := h.Results()
	if res[0].ID != 3 || res[1].ID != 5 {
		t.Fatalf("tie handling wrong: %+v", res)
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestLenFullK(t *testing.T) {
	h := New(3)
	if h.K() != 3 || h.Len() != 0 || h.Full() {
		t.Fatal("fresh heap state wrong")
	}
	h.Push(1, 1)
	h.Push(2, 2)
	h.Push(3, 3)
	if !h.Full() || h.Len() != 3 {
		t.Fatal("heap should be full")
	}
}

// TestHeapPropertyQuick: the retained set is always the k smallest under
// the tie rule, for arbitrary float distances.
func TestHeapPropertyQuick(t *testing.T) {
	if err := quick.Check(func(ds []float32, kRaw uint8) bool {
		if len(ds) == 0 {
			return true
		}
		k := int(kRaw%16) + 1
		h := New(k)
		items := make([]Result, len(ds))
		for i, d := range ds {
			items[i] = Result{ID: int64(i), Distance: d}
			h.Push(int64(i), d)
		}
		want := reference(items, k)
		got := h.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultsDoesNotMutateHeap(t *testing.T) {
	h := New(3)
	for i := 0; i < 10; i++ {
		h.Push(int64(i), float32(10-i))
	}
	a := h.Results()
	b := h.Results()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated Results() differ")
		}
	}
	thrBefore, _ := h.Threshold()
	h.Results()
	thrAfter, _ := h.Threshold()
	if thrBefore != thrAfter {
		t.Fatal("Results() changed the threshold")
	}
}

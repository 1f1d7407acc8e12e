package topk

import (
	"math/rand"
	"reflect"
	"testing"
)

// oracleMerge is the single-node reference: deduplicate by id keeping
// the smallest distance, then push everything through one bounded heap.
func oracleMerge(k int, lists ...[]Result) []Result {
	best := make(map[int64]float32)
	var order []int64
	for _, list := range lists {
		for _, r := range list {
			if d, ok := best[r.ID]; !ok {
				best[r.ID] = r.Distance
				order = append(order, r.ID)
			} else if r.Distance < d {
				best[r.ID] = r.Distance
			}
		}
	}
	h := New(k)
	for _, id := range order {
		h.Push(id, best[id])
	}
	return h.Results()
}

func TestMergeEqualDistancesAcrossShards(t *testing.T) {
	// Every candidate at the same distance: the merged order must be the
	// deterministic (distance, id) order, and the retained set the k
	// smallest ids — no matter which shard contributed which id.
	shardA := []Result{{ID: 7, Distance: 1.5}, {ID: 3, Distance: 1.5}, {ID: 11, Distance: 1.5}}
	shardB := []Result{{ID: 2, Distance: 1.5}, {ID: 9, Distance: 1.5}, {ID: 5, Distance: 1.5}}
	got := MergeResults(4, shardA, shardB)
	want := []Result{{ID: 2, Distance: 1.5}, {ID: 3, Distance: 1.5}, {ID: 5, Distance: 1.5}, {ID: 7, Distance: 1.5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("equal-distance merge = %v, want %v", got, want)
	}
	// Swapping shard order must change nothing.
	if got2 := MergeResults(4, shardB, shardA); !reflect.DeepEqual(got2, got) {
		t.Fatalf("merge depends on shard order: %v vs %v", got2, got)
	}
}

func TestMergeBoundaryTieAcrossShards(t *testing.T) {
	// A tie exactly at the k-th position, split across shards: the
	// smaller id must win the last slot.
	shardA := []Result{{ID: 1, Distance: 0.5}, {ID: 40, Distance: 2.0}}
	shardB := []Result{{ID: 2, Distance: 1.0}, {ID: 30, Distance: 2.0}}
	got := MergeResults(3, shardA, shardB)
	want := []Result{{ID: 1, Distance: 0.5}, {ID: 2, Distance: 1.0}, {ID: 30, Distance: 2.0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary tie merge = %v, want %v", got, want)
	}
}

func TestMergeKLargerThanTotalHits(t *testing.T) {
	shardA := []Result{{ID: 4, Distance: 3}, {ID: 1, Distance: 1}}
	shardB := []Result{{ID: 2, Distance: 2}}
	got := MergeResults(100, shardA, shardB)
	want := []Result{{ID: 1, Distance: 1}, {ID: 2, Distance: 2}, {ID: 4, Distance: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k > hits merge = %v, want %v", got, want)
	}
	if got := MergeResults(5); len(got) != 0 {
		t.Fatalf("merge of no lists = %v, want empty", got)
	}
	if got := MergeResults(5, nil, []Result{}); len(got) != 0 {
		t.Fatalf("merge of empty lists = %v, want empty", got)
	}
}

func TestMergeDuplicateIDsFromReplicaFailover(t *testing.T) {
	// During failover a hedged replica can answer the same cells as the
	// primary — the same ids arrive twice. When the replica serves a
	// different snapshot epoch the distances can even differ; the merge
	// must keep one copy per id, at the smallest distance.
	primary := []Result{{ID: 1, Distance: 1.0}, {ID: 2, Distance: 2.0}, {ID: 3, Distance: 3.0}}
	replica := []Result{{ID: 1, Distance: 1.0}, {ID: 2, Distance: 1.5}, {ID: 4, Distance: 2.5}}
	got := MergeResults(10, primary, replica)
	want := []Result{
		{ID: 1, Distance: 1.0}, {ID: 2, Distance: 1.5},
		{ID: 4, Distance: 2.5}, {ID: 3, Distance: 3.0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicate-id merge = %v, want %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].ID == got[i].ID {
			t.Fatalf("duplicate id %d survived the merge: %v", got[i].ID, got)
		}
	}
}

// shardShaped returns list as one shard replies: each id once, at its
// smallest distance, sorted by (distance, id) — one node's answer over
// list.
func shardShaped(list []Result) []Result {
	return oracleMerge(len(list)+1, list)
}

func TestMergeMatchesSingleNodeOracleFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nShards := 1 + rng.Intn(4)
		k := 1 + rng.Intn(12)
		lists := make([][]Result, nShards)
		for s := range lists {
			n := rng.Intn(20)
			for i := 0; i < n; i++ {
				lists[s] = append(lists[s], Result{
					// Small id and distance ranges force cross-shard
					// duplicates and distance ties.
					ID:       int64(rng.Intn(30)),
					Distance: float32(rng.Intn(8)) / 2,
				})
			}
		}
		// Beside the raw lists, the same candidates as shards send them:
		// each list sorted and free of repeated ids, duplicates left only
		// across lists, as a hedge race leaves them.
		shaped := make([][]Result, nShards)
		for s, list := range lists {
			shaped[s] = shardShaped(list)
		}
		perm := rng.Perm(nShards)
		for _, in := range [][][]Result{lists, shaped} {
			want := oracleMerge(k, in...)
			got := MergeResults(k, in...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: merge %v != oracle %v (k=%d lists=%v)", trial, got, want, k, in)
			}
			// Permute the shard lists: the answer must not move.
			shuffled := make([][]Result, nShards)
			for i, p := range perm {
				shuffled[i] = in[p]
			}
			if got2 := MergeResults(k, shuffled...); !reflect.DeepEqual(got2, got) {
				t.Fatalf("trial %d: merge depends on list order: %v vs %v", trial, got2, got)
			}
		}
	}
}

// BenchmarkMergeResults is a router's merge of a two-shard query at the
// paper's k = 100: two sorted lists of 100 distinct ids each.
func BenchmarkMergeResults(b *testing.B) {
	const k = 100
	rng := rand.New(rand.NewSource(1))
	lists := make([][]Result, 2)
	for s := range lists {
		for i := 0; i < k; i++ {
			lists[s] = append(lists[s], Result{ID: int64(s*k + i), Distance: rng.Float32()})
		}
		lists[s] = shardShaped(lists[s])
	}
	b.ReportAllocs()
	for b.Loop() {
		MergeResults(k, lists...)
	}
}

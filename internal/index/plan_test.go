package index

import (
	"slices"
	"sort"
	"testing"

	"pqfastscan/internal/vec"
)

// TestRankCellsIntoMatchesRankCells pins the one routing order through
// both of its signatures: ascending coarse distance, ties broken by
// cell id. The two share a body, so the order itself is checked against
// a plain sort — on the index's centroids, and on a codebook whose
// duplicated rows force ties.
func TestRankCellsIntoMatchesRankCells(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	tied := vec.NewMatrix(2*ix.Partitions(), ix.Dim)
	for c := 0; c < tied.Rows(); c++ {
		copy(tied.Row(c), ix.Coarse.Row(c%ix.Partitions()))
	}
	for _, coarse := range []vec.Matrix{ix.Coarse, tied} {
		twin := &Index{Dim: ix.Dim, Coarse: coarse}
		n := coarse.Rows()
		ids, dists := make([]int, n), make([]float32, n)
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			want := make([]int, n)
			for c := range want {
				want[c] = c
			}
			sort.SliceStable(want, func(a, b int) bool { // stable: ties stay in id order
				return vec.L2Squared(q, coarse.Row(want[a])) < vec.L2Squared(q, coarse.Row(want[b]))
			})
			for name, got := range map[string][]int{
				"RankCells":     RankCells(q, coarse),
				"RankCellsInto": twin.RankCellsInto(q, ids, dists),
			} {
				if !slices.Equal(got, want) {
					t.Fatalf("q%d over %d cells: %s = %v, want %v", qi, n, name, got, want)
				}
			}
		}
	}
}

// TestRecallPrefix is the one recall→nprobe rule, shared by the planner
// and the cluster router.
func TestRecallPrefix(t *testing.T) {
	ranked := []int{3, 0, 2, 1}  // cell ids, closest first
	live := []int{30, 0, 50, 20} // by cell id: cell 1 is empty
	for _, tc := range []struct {
		name   string
		ranked []int
		live   []int
		r      float64
		want   int
	}{
		{"tiny target: the closest cell", ranked, live, 1e-9, 1},
		{"mass reached exactly on a boundary", ranked, live, 0.2, 1},
		{"just past that boundary: one more cell", ranked, live, 0.21, 2},
		{"boundary after two cells", ranked, live, 0.5, 2},
		{"r = 1 stops at the last non-empty cell in rank order", ranked, live, 1, 3},
		{"r = 1 with the empty cell ranked first still walks to the last live one", []int{1, 3, 0, 2}, live, 1, 4},
		{"no live mass: single probe", ranked, []int{0, 0, 0, 0}, 0.9, 1},
		{"empty fleet (no sizes reported): single probe", ranked, nil, 0.9, 1},
	} {
		if got := RecallPrefix(tc.ranked, tc.live, tc.r); got != tc.want {
			t.Errorf("%s: RecallPrefix(%v, %v, %g) = %d, want %d", tc.name, tc.ranked, tc.live, tc.r, got, tc.want)
		}
	}
}

func TestRankCellsIntoGrowsSmallBuffers(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	got := ix.RankCellsInto(queries.Row(0), nil, nil)
	want := RankCells(queries.Row(0), ix.Coarse)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grown-buffer order diverges: got %v want %v", got, want)
		}
	}
}

func TestPlanStatsIntoMatchesPartitionStats(t *testing.T) {
	ix, _, _ := sharedIndex(t)
	buf := make([]PlanStat, 0, ix.Partitions())
	stats := ix.PlanStatsInto(buf)
	ref := ix.PartitionStats()
	if len(stats) != len(ref) {
		t.Fatalf("length %d, want %d", len(stats), len(ref))
	}
	for i, st := range stats {
		if st.N != ref[i].Live+ref[i].Dead || st.Dead != ref[i].Dead {
			t.Errorf("partition %d: PlanStat %+v vs PartitionStat %+v", i, st, ref[i])
		}
		if st.Paged != ix.Paged() {
			t.Errorf("partition %d: paged %v, index paged %v", i, st.Paged, ix.Paged())
		}
	}
}

func TestPlanAccessorsDoNotAllocate(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	q := queries.Row(0)
	n := ix.Partitions()
	ids := make([]int, n)
	dists := make([]float32, n)
	stats := make([]PlanStat, n)
	allocs := testing.AllocsPerRun(100, func() {
		ix.RankCellsInto(q, ids, dists)
		ix.PlanStatsInto(stats)
	})
	if allocs != 0 {
		t.Errorf("plan accessors allocate %.1f per query, want 0", allocs)
	}
}

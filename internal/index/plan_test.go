package index

import (
	"context"
	"fmt"
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

// TestRecallPrefix is the one recall→nprobe rule, shared by Query and
// the cluster router.
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

func TestPlanAccessorsDoNotAllocate(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	q := queries.Row(0)
	n := ix.Partitions()
	ids := make([]int, n)
	dists := make([]float32, n)
	allocs := testing.AllocsPerRun(100, func() {
		ix.RankCellsInto(q, ids, dists)
	})
	if allocs != 0 {
		t.Errorf("RankCellsInto allocates %.1f per query, want 0", allocs)
	}
}

// TestRecallTargetExtendsPrefix: a Query with a recall target r probes
// the shortest prefix of the RankCells order whose live rows reach
// fraction r of the snapshot's, answers exactly what that nprobe
// answers, and weighs cells by their live rows only — tombstoning half
// of the closest cell makes the same target reach further.
func TestRecallTargetExtendsPrefix(t *testing.T) {
	ix, gen := buildMutable(t, 63)
	ctx := context.Background()
	q := gen.Generate(1).Row(0)
	ranked := RankCells(q, ix.Coarse)

	probe := func(tag string, r float64) int {
		t.Helper()
		got, err := ix.Query(ctx, Request{Query: q, K: 10, Recall: r})
		if err != nil {
			t.Fatal(err)
		}
		n := len(got.Partitions)
		if !slices.Equal(got.Partitions, ranked[:n]) {
			t.Fatalf("%s, recall %g: probed %v, not a prefix of %v", tag, r, got.Partitions, ranked)
		}
		want, err := ix.Query(ctx, Request{Query: q, K: 10, NProbe: n})
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, fmt.Sprintf("%s, recall %g vs nprobe %d", tag, r, n), got.Results, want.Results)
		return n
	}
	live := func() (perCell []int, total int) {
		for _, ps := range ix.PartitionStats() {
			perCell = append(perCell, ps.Live)
			total += ps.Live
		}
		return perCell, total
	}
	check := func(tag string) {
		perCell, total := live()
		mass := func(n int) (m int) {
			for _, c := range ranked[:n] {
				m += perCell[c]
			}
			return m
		}
		last := 0
		for _, r := range []float64{0.1, 0.5, 0.9, 1.0} {
			n := probe(tag, r)
			if n < last {
				t.Errorf("%s, recall %g: nprobe %d shrank below %d", tag, r, n, last)
			}
			last = n
			need := r * float64(total)
			if float64(mass(n)) < need {
				t.Errorf("%s, recall %g: prefix %d holds %d live rows < %.0f", tag, r, n, mass(n), need)
			}
			if n > 1 && float64(mass(n-1)) >= need {
				t.Errorf("%s, recall %g: prefix %d is not the shortest", tag, r, n)
			}
		}
	}

	check("clean")
	perCell, total := live()
	closest := ranked[0]
	r := 0.99 * float64(perCell[closest]) / float64(total)
	if n := probe("clean", r); n != 1 {
		t.Fatalf("recall %g probed %d cells, want the closest alone", r, n)
	}

	rows, err := ix.Query(ctx, Request{Query: q, K: perCell[closest], Cells: []int{closest}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows.Results[:len(rows.Results)/2] {
		if err := ix.Delete(row.ID); err != nil {
			t.Fatal(err)
		}
	}
	check("tombstoned")
	if n := probe("tombstoned", r); n < 2 {
		t.Fatalf("recall %g still probed %d cell after half the closest cell's rows died: the prefix ignores dead rows", r, n)
	}
}

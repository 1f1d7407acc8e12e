package index

import (
	"pqfastscan/internal/vec"
)

// The probe-set inputs every routing decision reads — the cell ranking
// and the recall→nprobe rule — for Query's multi-probe path and the
// cluster router alike.

// RankCells orders every cell id by ascending coarse distance between
// the query and coarse's rows (ties by cell id) — step 1 of Algorithm 1
// as a standalone function. It is the one routing order in the system:
// Query's multi-probe path and the scatter-gather cluster router
// (internal/cluster) both rank with it, which is what lets a router
// that only holds the coarse centroids pick the exact probe set a
// single-node multi-probe query would, ties included.
func RankCells(query []float32, coarse vec.Matrix) []int {
	return rankCells(query, coarse, nil, nil)
}

// RankCellsInto is RankCells over the index's own centroids writing
// into caller-provided storage: ids receives the ranking, dists is
// scratch for the distances. Neither slice escapes; no allocation when
// both have capacity Partitions().
func (ix *Index) RankCellsInto(query []float32, ids []int, dists []float32) []int {
	return rankCells(query, ix.Coarse, ids, dists)
}

// rankCells is the one ranking body behind RankCells and RankCellsInto,
// growing either buffer that is too small.
func rankCells(query []float32, coarse vec.Matrix, ids []int, dists []float32) []int {
	n := coarse.Rows()
	if cap(ids) < n {
		ids = make([]int, n)
	}
	if cap(dists) < n {
		dists = make([]float32, n)
	}
	ids, dists = ids[:n], dists[:n]
	for i := 0; i < n; i++ {
		ids[i] = i
		dists[i] = vec.L2Squared(query, coarse.Row(i))
	}
	heapsortCells(ids, dists)
	return ids
}

// RecallPrefix maps a recall target r in (0, 1] to a probe-prefix
// length: how many leading cells of ranked (a RankCells order) must be
// probed before they hold at least fraction r of the live mass, live
// being the live row count per cell id. It is the one recall→nprobe
// rule, shared by Query and the cluster router, so a routed ?recall=
// query probes exactly what a single node would. It is a coverage
// target, not a measured recall. With no live mass at all it answers
// the single-probe default.
func RecallPrefix(ranked, live []int, r float64) int {
	total := 0
	for _, n := range live {
		total += n
	}
	if total == 0 {
		return 1
	}
	need := r * float64(total)
	mass := 0
	for i, c := range ranked {
		mass += live[c]
		if float64(mass) >= need {
			return i + 1
		}
	}
	return len(ranked)
}

// heapsortCells sorts the parallel (id, dist) arrays by (dist, id)
// ascending in place — heapsort rather than sort.Slice because the
// latter's interface conversion allocates, and this runs per query.
// Deterministic total order: distances never compare equal without the
// id tiebreak deciding.
func heapsortCells(ids []int, dists []float32) {
	n := len(ids)
	less := func(a, b int) bool {
		if dists[a] != dists[b] {
			return dists[a] < dists[b]
		}
		return ids[a] < ids[b]
	}
	swap := func(a, b int) {
		ids[a], ids[b] = ids[b], ids[a]
		dists[a], dists[b] = dists[b], dists[a]
	}
	siftDown := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && less(child, child+1) {
				child++
			}
			if !less(root, child) {
				return
			}
			swap(root, child)
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for end := n - 1; end > 0; end-- {
		swap(0, end)
		siftDown(0, end)
	}
}

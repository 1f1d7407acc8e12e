// Package kmeans implements the Lloyd k-means quantizer training used by
// product quantization ("We consider Lloyd-optimal quantizers which map
// vectors to their closest centroids and can be built using k-means",
// paper §2.1), with k-means++ seeding and empty-cluster repair.
//
// It also implements the same-size k-means variation (Schubert, reference
// [24] of the paper) that PQ Fast Scan uses to compute its optimized
// assignment of sub-quantizer centroid indexes: centroids are grouped into
// 16 clusters of exactly 16 elements each, and members of one cluster
// receive consecutive indexes so that each 16-element portion of a
// distance table holds distances to nearby centroids (§4.3, Figure 11).
package kmeans

import (
	"fmt"
	"math"
	"sort"

	"pqfastscan/internal/rng"
	"pqfastscan/internal/vec"
)

// Config controls a k-means run.
type Config struct {
	K       int // number of centroids
	MaxIter int // maximum Lloyd iterations (default 25)
	Seed    uint64
	Verbose bool
}

// Result holds the trained codebook.
type Result struct {
	Centroids vec.Matrix // K x Dim
	Assign    []int      // per training vector, index of closest centroid
	Inertia   float64    // sum of squared distances to assigned centroids
	Iters     int        // iterations actually run
}

// Train runs k-means++ seeding followed by Lloyd iterations on the rows of
// data. It returns an error when the training set is smaller than K.
func Train(data vec.Matrix, cfg Config) (*Result, error) {
	n, dim := data.Rows(), data.Dim
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d", cfg.K)
	}
	if n < cfg.K {
		return nil, fmt.Errorf("kmeans: %d training vectors for K=%d centroids", n, cfg.K)
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	r := rng.New(cfg.Seed)

	centroids := seedPlusPlus(data, cfg.K, r)
	assign := make([]int, n)
	counts := make([]int, cfg.K)
	res := &Result{Centroids: centroids, Assign: assign}

	// assignStep sets every row's nearest centroid (vec.ArgminL2Rows: the
	// eight-row kernel where the active backend has one, bit for bit
	// vec.ArgminL2) and returns their summed distance, in row order.
	dists := make([]float32, n)
	assignStep := func() float64 {
		vec.ArgminL2Rows(data.Data, dim, dim, centroids.Data, assign, dists)
		inertia := 0.0
		for _, d := range dists {
			inertia += float64(d)
		}
		return inertia
	}

	prevInertia := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		inertia := assignStep()
		// Update step.
		vec.Zero(centroids.Data)
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			vec.Add(centroids.Row(assign[i]), data.Row(i))
			counts[assign[i]]++
		}
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				// Empty-cluster repair: restart the centroid on a random
				// training vector so every code stays usable.
				copy(centroids.Row(c), data.Row(r.Intn(n)))
				continue
			}
			vec.Scale(centroids.Row(c), 1/float32(counts[c]))
		}
		res.Iters = iter + 1
		res.Inertia = inertia
		if math.Abs(prevInertia-inertia) <= 1e-4*math.Abs(prevInertia) {
			break
		}
		prevInertia = inertia
	}
	// Final assignment against the last centroid update.
	res.Inertia = assignStep()
	return res, nil
}

// seedPlusPlus picks K initial centroids with the k-means++ D² weighting.
func seedPlusPlus(data vec.Matrix, k int, r *rng.Source) vec.Matrix {
	n, dim := data.Rows(), data.Dim
	centroids := vec.NewMatrix(k, dim)
	first := r.Intn(n)
	copy(centroids.Row(0), data.Row(first))

	d2 := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		d2[i] = float64(vec.L2Squared(data.Row(i), centroids.Row(0)))
		total += d2[i]
	}
	for c := 1; c < k; c++ {
		idx := sampleWeighted(d2, total, r)
		copy(centroids.Row(c), data.Row(idx))
		// Refresh the shortest-distance table.
		total = 0
		for i := 0; i < n; i++ {
			d := float64(vec.L2Squared(data.Row(i), centroids.Row(c)))
			if d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
	}
	return centroids
}

func sampleWeighted(w []float64, total float64, r *rng.Source) int {
	if total <= 0 {
		return r.Intn(len(w))
	}
	target := r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if acc >= target {
			return i
		}
	}
	return len(w) - 1
}

// SameSize clusters the rows of data into nClusters clusters of exactly
// len(data)/nClusters members each, following the same-size k-means
// variation of reference [24]: a regular k-means produces seeds, then
// points are ordered by the benefit of their best assignment and greedily
// placed, followed by improvement swaps. It returns the per-row cluster id.
//
// PQ Fast Scan uses this with 256 sub-quantizer centroids as the rows and
// nClusters=16, so each cluster of 16 centroids becomes one 16-index
// portion of a distance table (§4.3).
func SameSize(data vec.Matrix, nClusters int, seed uint64) ([]int, error) {
	n := data.Rows()
	if nClusters <= 0 || n%nClusters != 0 {
		return nil, fmt.Errorf("kmeans: %d rows not divisible into %d same-size clusters", n, nClusters)
	}
	size := n / nClusters
	km, err := Train(data, Config{K: nClusters, MaxIter: 25, Seed: seed})
	if err != nil {
		return nil, err
	}
	centroids := km.Centroids

	// Distance matrix point x cluster.
	dist := make([][]float32, n)
	for i := 0; i < n; i++ {
		dist[i] = make([]float32, nClusters)
		for c := 0; c < nClusters; c++ {
			dist[i][c] = vec.L2Squared(data.Row(i), centroids.Row(c))
		}
	}

	// Initial greedy assignment ordered by (best - worst) benefit: points
	// that lose the most from a bad placement choose first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return benefit(dist[order[a]]) > benefit(dist[order[b]])
	})
	assign := make([]int, n)
	counts := make([]int, nClusters)
	for _, i := range order {
		best, bestD := -1, float32(math.Inf(1))
		for c := 0; c < nClusters; c++ {
			if counts[c] >= size {
				continue
			}
			if dist[i][c] < bestD {
				bestD = dist[i][c]
				best = c
			}
		}
		assign[i] = best
		counts[best]++
	}

	// Improvement phase: swap pairs whose exchange reduces total distance.
	for pass := 0; pass < 8; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ci, cj := assign[i], assign[j]
				if ci == cj {
					continue
				}
				cur := dist[i][ci] + dist[j][cj]
				swapped := dist[i][cj] + dist[j][ci]
				if swapped < cur {
					assign[i], assign[j] = cj, ci
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return assign, nil
}

func benefit(d []float32) float32 {
	minV, maxV := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range d {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return maxV - minV
}

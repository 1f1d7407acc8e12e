package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pqfastscan"
	"pqfastscan/internal/dataset"
)

// The corpus is a constant of the benchmark, not an input: k-means
// partition sizes move by a tenth with the data seed, and every nprobe=1
// number would move with them. --seed draws the load only.
const (
	corpusSeed = 42
	partitions = 4
	poolSize   = 256   // distinct queries, and distinct written vectors, per run
	candidates = 16384 // constant vectors the seed draws its pools from
	maxK       = 100   // the largest k any workload asks for
)

// scale sizes a run. Only "full" is ever gated; "quick" exists for the
// smoke test.
type scale struct {
	name   string
	learn  int
	base   int
	checks int
	warm   time.Duration
}

var scales = map[string]scale{
	"full":  {"full", 10000, 400000, 32, time.Second},
	"quick": {"quick", 4000, 20000, 16, 200 * time.Millisecond},
}

// corpus is the common set-up of every workload: the built index, the
// constant check queries with their exact neighbours, and the seeded
// pools the load cycles through.
type corpus struct {
	start  time.Time // when the process (or the test's run) started
	idx    *pqfastscan.Index
	rows   int // vectors the index was built over
	checks pqfastscan.Matrix
	truth  [][]int64 // exact maxK nearest base ids of every check query
	pool   pqfastscan.Matrix
	writes pqfastscan.Matrix

	genS, buildS, warmS float64
	checkS              float64 // ground truth and oracle time, kept out of setup_s
}

// buildCorpus generates the constant data, builds the index with the
// default options and touches every partition once.
func buildCorpus(start time.Time, sc scale, seed uint64) (*corpus, error) {
	c := &corpus{start: start, rows: sc.base}
	t0 := time.Now()
	gen := dataset.NewGenerator(dataset.Config{Seed: corpusSeed})
	learn := gen.Generate(sc.learn)
	base := gen.Generate(sc.base)
	c.checks = gen.Generate(sc.checks)
	cand := gen.Generate(candidates)
	c.genS = time.Since(t0).Seconds()

	t0 = time.Now()
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = partitions
	opt.Seed = corpusSeed
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	c.idx = idx
	c.buildS = time.Since(t0).Seconds()
	c.pool = draw(idx, cand, seed)
	c.writes = draw(idx, cand, seed+1)

	// The Fast Scan layout of a partition is built by its first query.
	t0 = time.Now()
	if _, err := idx.Search(context.Background(), c.checks.Row(0), 10, pqfastscan.WithNProbe(partitions)); err != nil {
		return nil, fmt.Errorf("first scan: %w", err)
	}
	c.warmS = time.Since(t0).Seconds()

	t0 = time.Now()
	c.truth, err = dataset.GroundTruth(base, c.checks, maxK)
	if err != nil {
		return nil, fmt.Errorf("ground truth: %w", err)
	}
	c.checkS = time.Since(t0).Seconds()
	return c, nil // base is dropped here: the raw vectors are not part of the served heap
}

// draw picks poolSize distinct rows of cand, which ones and in which
// order fixed by seed. Distinct, so the content-keyed query-table cache
// of a scan scratch cannot serve a repeat. Every seed takes the same
// number of rows from each coarse cell (the cell's share of cand): a
// search or an add costs about as much as its partition is large, and
// left to chance the mix would move every nprobe=1 number by several
// percent from seed to seed.
func draw(idx *pqfastscan.Index, cand pqfastscan.Matrix, seed uint64) pqfastscan.Matrix {
	rng := rand.New(rand.NewSource(int64(seed)))
	byCell := make([][]int, partitions)
	for i := 0; i < cand.Rows(); i++ {
		cell := idx.Internal().RoutePartition(cand.Row(i))
		byCell[cell] = append(byCell[cell], i)
	}
	// Largest-remainder quotas, so they add up to poolSize exactly.
	quota := make([]int, partitions)
	order := make([]int, partitions)
	left := poolSize
	for cell, rows := range byCell {
		quota[cell] = len(rows) * poolSize / cand.Rows()
		left -= quota[cell]
		order[cell] = cell
	}
	rem := func(cell int) int { return len(byCell[cell]) * poolSize % cand.Rows() }
	sort.Slice(order, func(a, b int) bool { return rem(order[a]) > rem(order[b]) })
	for _, cell := range order[:left] {
		quota[cell]++
	}
	var picked []int
	for cell, rows := range byCell {
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		picked = append(picked, rows[:quota[cell]]...)
	}
	rng.Shuffle(len(picked), func(a, b int) { picked[a], picked[b] = picked[b], picked[a] })
	out := pqfastscan.NewMatrix(poolSize, cand.Dim)
	for i, row := range picked {
		copy(out.Row(i), cand.Row(row))
	}
	return out
}

// recall is the share of the exact top-k found by the answers.
func recall(answers [][]pqfastscan.Result, truth [][]int64, k int) float64 {
	found := 0
	for i, ans := range answers {
		want := make(map[int64]bool, k)
		for _, id := range truth[i][:k] {
			want[id] = true
		}
		for _, r := range ans {
			if want[r.ID] {
				found++
			}
		}
	}
	return float64(found) / float64(len(answers)*k)
}

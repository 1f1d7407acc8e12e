// Imagesearch: the content-based image retrieval scenario that motivates
// the paper's introduction ("Finding a multimedia object similar to a
// given query object therefore involves representing the query object as
// a high-dimensional vector and finding its nearest neighbor in the
// feature vector space").
//
// The example indexes a database of synthetic image descriptors, answers
// a batch of queries with every scan kernel, verifies all kernels return
// identical neighbor lists, and reports recall@R against exact
// brute-force ground truth along with each kernel's pruning statistics.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pqfastscan"
)

func main() {
	const (
		nBase    = 80000
		nLearn   = 5000
		nQueries = 20
		topk     = 100
	)
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 11})
	learn := gen.Generate(nLearn)
	base := gen.Generate(nBase)
	queries := gen.Generate(nQueries)

	opt := pqfastscan.DefaultBuildOptions()
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Exact ground truth by brute force, for recall.
	gt, err := pqfastscan.GroundTruth(base, queries, 1)
	if err != nil {
		log.Fatal(err)
	}

	kernels := []pqfastscan.Kernel{
		pqfastscan.KernelNaive,
		pqfastscan.KernelLibpq,
		pqfastscan.KernelFastScan,
	}
	ctx := context.Background()
	var reference [][]int64
	for _, kern := range kernels {
		// A preconfigured Searcher view: kernel fixed, statistics on.
		searcher := idx.With(pqfastscan.WithKernel(kern), pqfastscan.WithStats())
		var (
			results [][]int64
			elapsed time.Duration
			pruned  int
			lbs     int
			scanned int
		)
		for qi := 0; qi < nQueries; qi++ {
			start := time.Now()
			res, err := searcher.Search(ctx, queries.Row(qi), topk)
			if err != nil {
				log.Fatal(err)
			}
			elapsed += time.Since(start)
			pruned += res.Stats.Pruned
			lbs += res.Stats.LowerBounds
			scanned += res.Stats.Scanned
			ids := make([]int64, len(res.Results))
			for i, r := range res.Results {
				ids[i] = r.ID
			}
			results = append(results, ids)
		}
		if reference == nil {
			reference = results
		} else if !sameResults(reference, results) {
			log.Fatalf("kernel %v returned different neighbors", kern)
		}
		line := fmt.Sprintf("%-8v %6.2f ms/query  recall@1=%.3f  recall@100=%.3f",
			kern, float64(elapsed.Microseconds())/float64(nQueries)/1e3,
			pqfastscan.Recall(results, gt, 1), pqfastscan.Recall(results, gt, topk))
		if lbs > 0 {
			line += fmt.Sprintf("  pruned=%.1f%%", 100*float64(pruned)/float64(lbs))
		}
		fmt.Println(line)
	}
	fmt.Println("all kernels returned identical neighbor lists")
}

func sameResults(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

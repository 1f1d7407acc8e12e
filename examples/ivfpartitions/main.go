// Ivfpartitions: the large-database IVFADC scenario (paper §2.2 and
// §5.6/§5.7). The example builds a multi-cell inverted index, prints the
// partition size distribution (the shape of the paper's Table 3), then
// routes a query stream and reports per-partition scan behaviour —
// including how the automatic grouping-depth rule nmin(c) = 50·16^c
// reacts to partition size, the effect behind the paper's Figure 19.
//
// It also demonstrates multi-probe search (an extension beyond the
// paper): scanning the 2-3 closest cells trades latency for recall,
// whether the cells are counted (WithNProbe) or chosen by the share of
// live rows they hold (WithTargetRecall).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"pqfastscan"
	"pqfastscan/internal/layout"
)

func main() {
	const (
		nBase    = 150000
		nLearn   = 8000
		nQueries = 32
	)
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 23})
	learn := gen.Generate(nLearn)
	base := gen.Generate(nBase)
	queries := gen.Generate(nQueries)

	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 16
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		log.Fatal(err)
	}

	sizes := idx.PartitionSizes()
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })

	fmt.Println("partition sizes (descending) and auto-selected grouping depth:")
	for _, p := range order {
		c := layout.AutoComponents(sizes[p])
		fmt.Printf("  partition %2d: %6d vectors  c=%d (nmin(c)=%d)\n",
			p, sizes[p], c, layout.MinPartitionSize(c))
	}

	// Route the query stream and aggregate per-partition statistics.
	type agg struct {
		queries int
		pruned  int
		lbs     int
	}
	ctx := context.Background()
	perPart := make([]agg, len(sizes))
	for qi := 0; qi < nQueries; qi++ {
		res, err := idx.Search(ctx, queries.Row(qi), 100, pqfastscan.WithStats())
		if err != nil {
			log.Fatal(err)
		}
		part := res.Partitions[0]
		perPart[part].queries++
		perPart[part].pruned += res.Stats.Pruned
		perPart[part].lbs += res.Stats.LowerBounds
	}
	fmt.Println("\nquery routing and pruning per partition:")
	for _, p := range order {
		a := perPart[p]
		if a.queries == 0 {
			continue
		}
		fmt.Printf("  partition %2d: %2d queries, pruned %.1f%% of lower-bounded vectors\n",
			p, a.queries, 100*float64(a.pruned)/float64(a.lbs))
	}

	// Multi-probe: recall rises with the number of probed cells.
	gt, err := pqfastscan.GroundTruth(base, queries, 1)
	if err != nil {
		log.Fatal(err)
	}
	measure := func(opt pqfastscan.SearchOption) (recall, cells float64) {
		var results [][]int64
		probed := 0
		for qi := 0; qi < nQueries; qi++ {
			res, err := idx.Search(ctx, queries.Row(qi), 100, opt)
			if err != nil {
				log.Fatal(err)
			}
			ids := make([]int64, len(res.Results))
			for i, r := range res.Results {
				ids[i] = r.ID
			}
			results = append(results, ids)
			probed += len(res.Partitions)
		}
		return pqfastscan.Recall(results, gt, 100), float64(probed) / nQueries
	}
	fmt.Println("\nmulti-probe recall@100 (extension beyond the paper):")
	for _, nprobe := range []int{1, 2, 4} {
		recall, _ := measure(pqfastscan.WithNProbe(nprobe))
		fmt.Printf("  nprobe=%d: recall@100 = %.3f\n", nprobe, recall)
	}

	// A recall target is a coverage target, not a measured recall: each
	// query probes the closest cells until they hold fraction r of the
	// live rows. What that buys against exact neighbors is measured here.
	fmt.Println("\nrecall targets (closest cells holding fraction r of the live rows):")
	for _, r := range []float64{0.1, 0.25, 0.5} {
		recall, cells := measure(pqfastscan.WithTargetRecall(r))
		fmt.Printf("  r=%.2f: %.1f cells per query, measured recall@100 = %.3f\n", r, cells, recall)
	}
}

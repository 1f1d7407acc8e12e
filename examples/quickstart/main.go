// Quickstart: build a small index over synthetic SIFT-like vectors,
// answer nearest-neighbor queries through the context-aware Search API,
// and mutate the index online with Add and Delete — no rebuild.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"pqfastscan"
)

func main() {
	ctx := context.Background()

	// Deterministic synthetic data standing in for SIFT descriptors
	// (128-dimensional image feature vectors).
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 7})
	learn := gen.Generate(5000)  // training set for the quantizers
	base := gen.Generate(100000) // the database
	queries := gen.Generate(3)   // query vectors

	start := time.Now()
	idx, err := pqfastscan.Build(learn, base, pqfastscan.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors in %v (partitions: %v)\n",
		base.Rows(), time.Since(start).Round(time.Millisecond), idx.PartitionSizes())

	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		start = time.Now()
		res, err := idx.Search(ctx, q, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d: top-5 in %v (partition %v)\n",
			qi, time.Since(start).Round(time.Microsecond), res.Partitions)
		for rank, r := range res.Results {
			fmt.Printf("  #%d id=%d distance=%.1f\n", rank+1, r.ID, r.Distance)
		}
	}

	// Every kernel returns identical results; Fast Scan just gets there
	// with ~4-6x fewer CPU cycles on real SIMD hardware.
	q := queries.Row(0)
	fast, err := idx.Search(ctx, q, 5, pqfastscan.WithKernel(pqfastscan.KernelFastScan))
	if err != nil {
		log.Fatal(err)
	}
	slow, err := idx.Search(ctx, q, 5, pqfastscan.WithKernel(pqfastscan.KernelNaive))
	if err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(fast.Results, slow.Results) {
		log.Fatalf("FastScan results differ from naive PQ Scan: %v vs %v", fast.Results, slow.Results)
	}
	fmt.Println("FastScan results identical to naive PQ Scan: true")

	// Online mutation: ingest fresh vectors and delete the current best
	// match, then search again — served straight from the live index.
	ids, err := idx.AddBatch(gen.Generate(100))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("added %d vectors online (ids %d..%d)\n", len(ids), ids[0], ids[len(ids)-1])
	best := fast.Results[0].ID
	if err := idx.Delete(best); err != nil {
		log.Fatalf("delete of id %d failed: %v", best, err)
	}
	res, err := idx.Search(ctx, q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after deleting id %d the best match is id %d (%d live vectors)\n",
		best, res.Results[0].ID, idx.Live())
}

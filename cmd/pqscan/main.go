// Command pqscan builds an IVFADC index over a dataset file and answers
// nearest-neighbor queries with a selectable scan kernel, reporting
// response times, pruning statistics and (when ground truth is supplied)
// recall — the end-to-end search pipeline of the paper's Algorithm 1.
//
// Usage:
//
//	pqscan -base synth_base.fvecs -learn synth_learn.fvecs \
//	       -query synth_query.fvecs -gt synth_groundtruth.ivecs \
//	       -kernel fastpq -topk 100
//
// -kernel names one of the three scans a query can run: fastpq (PQ Fast
// Scan, the default), libpq (the tuned exact PQ Scan) or naive
// (Algorithm 1, the oracle). The paper's other kernels are laboratory
// implementations reported by pqbench. Fast Scan visits a partition's
// groups in database order, as the paper does; all three kernels return
// the same neighbors, and -kernel changes only the cost and the pruning
// statistics printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"pqfastscan"
	"pqfastscan/internal/dataset"
)

func readVectors(path string, limit int) (pqfastscan.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return pqfastscan.Matrix{}, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bvecs") {
		return dataset.ReadBvecs(f, limit)
	}
	return dataset.ReadFvecs(f, limit)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqscan: ")
	var (
		basePath   = flag.String("base", "", "base vectors (.fvecs or .bvecs)")
		learnPath  = flag.String("learn", "", "learning vectors (defaults to base)")
		queryPath  = flag.String("query", "", "query vectors")
		gtPath     = flag.String("gt", "", "ground truth (.ivecs), optional")
		kernelName = flag.String("kernel", "fastpq", "scan kernel: naive, libpq or fastpq")
		topk       = flag.Int("topk", 100, "neighbors per query")
		nprobe     = flag.Int("nprobe", 1, "partitions probed per query")
		partitions = flag.Int("partitions", 8, "IVF partitions")
		keep       = flag.Float64("keep", 0, "keep fraction for qmax (0 = paper default)")
		maxBase    = flag.Int("maxbase", 0, "limit base vectors read (0 = all)")
		maxQuery   = flag.Int("maxquery", 0, "limit queries read (0 = all)")
		seed       = flag.Uint64("seed", 1, "training seed")
		savePath   = flag.String("save", "", "write the built index to this path")
		loadPath   = flag.String("load", "", "load a previously saved index instead of building")
	)
	flag.Parse()

	if *basePath == "" || *queryPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	kernel, err := pqfastscan.ParseKernel(*kernelName)
	if err != nil {
		log.Fatal(err)
	}

	// Interrupts cancel in-flight queries between partition scans.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	base, err := readVectors(*basePath, *maxBase)
	if err != nil {
		log.Fatalf("reading base: %v", err)
	}
	learn := base
	if *learnPath != "" {
		if learn, err = readVectors(*learnPath, 0); err != nil {
			log.Fatalf("reading learn: %v", err)
		}
	}
	queries, err := readVectors(*queryPath, *maxQuery)
	if err != nil {
		log.Fatalf("reading queries: %v", err)
	}
	fmt.Printf("base: %d vectors, dim %d; queries: %d\n", base.Rows(), base.Dim, queries.Rows())

	var ix *pqfastscan.Index
	if *loadPath != "" {
		start := time.Now()
		ix, err = pqfastscan.LoadIndex(*loadPath)
		if err != nil {
			log.Fatalf("loading index: %v", err)
		}
		fmt.Printf("index loaded in %v, partitions: %v\n", time.Since(start).Round(time.Millisecond), ix.PartitionSizes())
	} else {
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = *partitions
		opt.Seed = *seed
		if *keep > 0 {
			opt.Keep = *keep
		}
		start := time.Now()
		ix, err = pqfastscan.Build(learn, base, opt)
		if err != nil {
			log.Fatalf("building index: %v", err)
		}
		fmt.Printf("index built in %v, partitions: %v\n", time.Since(start).Round(time.Millisecond), ix.PartitionSizes())
	}
	if *savePath != "" {
		if err := ix.Save(*savePath); err != nil {
			log.Fatalf("saving index: %v", err)
		}
		fmt.Printf("index saved to %s\n", *savePath)
	}

	searcher := ix.With(
		pqfastscan.WithKernel(kernel),
		pqfastscan.WithNProbe(*nprobe),
		pqfastscan.WithStats(),
	)
	var (
		totalScan   time.Duration
		scanned     int
		pruned, lbs int
		results     [][]int64
	)
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		t0 := time.Now()
		res, err := searcher.Search(ctx, q, *topk)
		if err != nil {
			log.Fatalf("query %d: %v", qi, err)
		}
		totalScan += time.Since(t0)
		scanned += res.Stats.Scanned
		pruned += res.Stats.Pruned
		lbs += res.Stats.LowerBounds
		ids := make([]int64, len(res.Results))
		for i, r := range res.Results {
			ids[i] = r.ID
		}
		results = append(results, ids)
	}
	nq := queries.Rows()
	fmt.Printf("kernel=%s topk=%d nprobe=%d: mean response %.3f ms, %.1f Mvecs/s (measured)\n",
		kernel, *topk, *nprobe,
		float64(totalScan.Microseconds())/float64(nq)/1e3,
		float64(scanned)/totalScan.Seconds()/1e6)
	if lbs > 0 {
		fmt.Printf("pruned %.2f%% of %d lower-bounded vectors\n", 100*float64(pruned)/float64(lbs), lbs)
	}

	if *gtPath != "" {
		f, err := os.Open(*gtPath)
		if err != nil {
			log.Fatalf("reading ground truth: %v", err)
		}
		gt, err := dataset.ReadIvecs(f, 0)
		f.Close()
		if err != nil {
			log.Fatalf("reading ground truth: %v", err)
		}
		if len(gt) < nq {
			log.Fatalf("ground truth has %d rows for %d queries", len(gt), nq)
		}
		for _, r := range []int{1, 10, 100} {
			if r <= *topk {
				fmt.Printf("recall@%d = %.4f\n", r, pqfastscan.Recall(results, gt, r))
			}
		}
	}
}

package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/scan/model"
)

func init() {
	Registry = append(Registry,
		Experiment{"recall", "§5.1 context: ANN recall of the PQ 8x8 pipeline", true, RecallExperiment},
		Experiment{"steps", "§2.2: cost split across Algorithm 1's three steps", true, StepsExperiment},
	)
}

// RecallExperiment reports recall@R of the full IVFADC pipeline against
// exact brute-force ground truth. The paper does not re-measure accuracy
// ("PQ accuracy has already been extensively studied [14]") because Fast
// Scan returns exactly PQ Scan's results; this experiment documents the
// accuracy of the underlying PQ 8×8 + IVF substrate and shows multi-probe
// recovering routing misses.
func RecallExperiment(env *Env, w io.Writer) error {
	gt, err := dataset.GroundTruth(env.Base, env.Queries, 1)
	if err != nil {
		return err
	}
	ctx := context.Background()
	tw := newTab(w)
	fmt.Fprintf(tw, "nprobe\trecall@1\trecall@10\trecall@100\n")
	for _, nprobe := range []int{1, 2, 4} {
		var results [][]int64
		for qi := 0; qi < env.Scale.QueryN; qi++ {
			resp, err := env.Index.Query(ctx, index.Request{
				Query: env.Queries.Row(qi), K: 100,
				Kernel: index.KernelFastScan, NProbe: nprobe,
			})
			if err != nil {
				return err
			}
			ids := make([]int64, len(resp.Results))
			for i, r := range resp.Results {
				ids[i] = r.ID
			}
			results = append(results, ids)
		}
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\n", nprobe,
			dataset.Recall(results, gt, 1),
			dataset.Recall(results, gt, 10),
			dataset.Recall(results, gt, 100))
	}
	fmt.Fprintf(tw, "\n%d queries over %d base vectors; identical for every kernel (exactness invariant)\n",
		env.Scale.QueryN, env.Base.Rows())
	return tw.Flush()
}

// StepsExperiment splits query cost across the three steps of
// Algorithm 1: partition selection, distance-table computation, and the
// scan. The paper reports that for partitions above 3 M vectors "Step 1
// and 2 account for less than 1% of the CPU time"; the split scales with
// partition size, so the measured fraction here (smaller partitions) is
// proportionally larger.
func StepsExperiment(env *Env, w io.Writer) error {
	arch := perf.Haswell
	const reps = 20
	var routeTime, tableTime, scanTime time.Duration
	var scanCycles float64
	var scannedVectors int
	for qi := 0; qi < env.Scale.QueryN; qi++ {
		q := env.Queries.Row(qi)
		start := time.Now()
		var part int
		for r := 0; r < reps; r++ {
			part = env.Index.RoutePartition(q)
		}
		routeTime += time.Since(start) / reps

		start = time.Now()
		for r := 0; r < reps; r++ {
			env.Index.Tables(q, part)
		}
		tableTime += time.Since(start) / reps

		out, err := env.RunKernel(model.KernelLibpq, qi, 100, PaperFastOpts())
		if err != nil {
			return err
		}
		scanTime += out.Measured
		scanCycles += out.Stats.Counters(arch).Cycles
		scannedVectors += out.Stats.Scanned
	}
	total := routeTime + tableTime + scanTime
	tw := newTab(w)
	fmt.Fprintf(tw, "step\tmeasured time\tfraction of query\n")
	fmt.Fprintf(tw, "1: select partition (index)\t%v\t%.2f%%\n",
		routeTime.Round(time.Microsecond), 100*float64(routeTime)/float64(total))
	fmt.Fprintf(tw, "2: compute distance tables\t%v\t%.2f%%\n",
		tableTime.Round(time.Microsecond), 100*float64(tableTime)/float64(total))
	fmt.Fprintf(tw, "3: scan partition (libpq)\t%v\t%.2f%%\n",
		scanTime.Round(time.Microsecond), 100*float64(scanTime)/float64(total))
	fmt.Fprintf(tw, "\navg partition %d vectors; the paper's >3M-vector partitions push steps 1-2 below 1%%\n",
		scannedVectors/env.Scale.QueryN)
	return tw.Flush()
}

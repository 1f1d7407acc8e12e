package bench

import (
	"fmt"
	"io"

	"pqfastscan/internal/perf"
	"pqfastscan/internal/scan/model"
)

func init() {
	Registry = append(Registry,
		Experiment{"bandwidth", "§5.8: multi-query scaling against memory bandwidth", true, BandwidthExperiment},
	)
}

// BandwidthExperiment reproduces the §5.8 argument: "PQ Fast Scan loads 6
// bytes from memory for each lower bound computation. Thus, a scan speed
// of 1800 M vecs/s corresponds to a bandwidth use of 10.8 GB/s. ... When
// answering 8 queries concurrently on an 8-core server processor, PQ Fast
// Scan is bound by the memory bandwidth." Per-core scan speed comes from
// the cost model; aggregate throughput is capped by the architecture's
// sustained DRAM bandwidth.
func BandwidthExperiment(env *Env, w io.Writer) error {
	part := env.largestPartition()
	n := env.Index.Parts()[part].N
	opt := HeadlineFastOpts(n, 100)

	// Per-core modeled speed and per-vector traffic for both kernels.
	type kernelRow struct {
		name         string
		kern         model.Kernel
		bytesPerVec  float64
		statsPerArch []float64 // cycles per vector, per arch
	}
	rows := []kernelRow{
		// libpq streams full 8-byte codes (plus L1-resident tables).
		{name: "libpq", kern: model.KernelLibpq, bytesPerVec: 8},
		// fastpq streams the 6-byte packed blocks (§5.8).
		{name: "fastpq", kern: model.KernelFastScan, bytesPerVec: 6},
	}
	pool := env.partitionPoolQueries(part, 8)
	if len(pool) == 0 {
		pool = []int{0}
	}
	for ri := range rows {
		var cyclesPerVec []float64
		for _, arch := range perf.Architectures {
			total := 0.0
			for _, qi := range pool {
				out, _, err := env.runPool(rows[ri].kern, qi, 100, opt)
				if err != nil {
					return err
				}
				total += out.Stats.Counters(arch).Cycles
			}
			cyclesPerVec = append(cyclesPerVec, total/float64(len(pool)*n))
		}
		rows[ri].statsPerArch = cyclesPerVec
	}

	tw := newTab(w)
	fmt.Fprintf(tw, "arch\tkernel\t1-core speed [Mvecs/s]\t1-core BW [GB/s]\tcores\taggregate demand [GB/s]\tDRAM BW [GB/s]\tdelivered speed x cores [Mvecs/s]\tbound\n")
	for ai, arch := range perf.Architectures {
		for _, row := range rows {
			perCore := arch.FreqGHz * 1e9 / row.statsPerArch[ai] / 1e6 // Mvecs/s
			bwPerCore := perCore * 1e6 * row.bytesPerVec / 1e9         // GB/s
			demand := bwPerCore * float64(arch.Cores)
			delivered := perCore * float64(arch.Cores)
			bound := "cpu"
			if demand > arch.MemBWGBs {
				delivered = arch.MemBWGBs * 1e9 / (row.bytesPerVec * 1e6)
				bound = "memory-bandwidth"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f\t%d\t%.1f\t%.1f\t%.0f\t%s\n",
				arch.Name, row.name, perCore, bwPerCore, arch.Cores,
				demand, arch.MemBWGBs, delivered, bound)
		}
	}
	return tw.Flush()
}

package bench

import (
	"fmt"
	"io"

	"pqfastscan/internal/perf"
	"pqfastscan/internal/scan/model"
)

func init() {
	Registry = append(Registry,
		Experiment{"wide", "§6 extension: 256-bit (AVX2) Fast Scan vs 128-bit", true, WideAblation},
		Experiment{"bandwidth", "§5.8: multi-query scaling against memory bandwidth", true, BandwidthExperiment},
	)
}

// WideAblation compares the 128-bit kernel of the paper against the §6
// widening: a 256-bit vpshufb performs 32 lookups, halving the front-end
// work per vector. Results are identical; only modeled cost changes.
func WideAblation(env *Env, w io.Writer) error {
	part := env.largestPartition()
	n := env.Index.Parts()[part].N
	arch := perf.Haswell
	tw := newTab(w)
	fmt.Fprintf(tw, "kernel\tregister width\tinstr/vec\tcycles/vec\tspeed [Mvecs/s]\tpruned %%\n")
	for _, row := range []struct {
		name string
		kern model.Kernel
		bits int
	}{
		{"fastpq (paper)", model.KernelFastScan, 128},
		{"fastpq256 (extension)", model.KernelFastScan256, 256},
	} {
		opt := HeadlineFastOpts(n, 100)
		var sum perf.Counters
		var pruned, lbs int
		pool := env.partitionPoolQueries(part, 12)
		if len(pool) == 0 {
			pool = []int{0}
		}
		nq := len(pool)
		for _, qi := range pool {
			out, _, err := env.runPool(row.kern, qi, 100, opt)
			if err != nil {
				return err
			}
			c := out.Stats.Counters(arch)
			sum.Cycles += c.Cycles
			sum.Instructions += c.Instructions
			pruned += out.Stats.Pruned
			lbs += out.Stats.LowerBounds
		}
		perVec := perVector(sum, nq*n)
		speed := float64(n) / (perVec.Cycles * float64(n) / (arch.FreqGHz * 1e9)) / 1e6
		fmt.Fprintf(tw, "%s\t%d-bit\t%.2f\t%.2f\t%.0f\t%.1f\n",
			row.name, row.bits, perVec.Instructions, perVec.Cycles, speed,
			100*float64(pruned)/float64(lbs))
	}
	return tw.Flush()
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

// Package model is the paper's laboratory: the implementations that
// exist to reproduce its counter figures, not to serve queries.
//
//   - the simulator Fast Scans (fastscan.go): §4's loop, written once,
//     with a bound per variant — Scan's minimum tables executed
//     instruction by instruction through internal/simd, a bit-exact
//     software model of the SSSE3 register file; ScanExact's exact
//     8-bit bound of the asm-avx512vbmi backend — each block decided at
//     the threshold its entry reads;
//   - the §3 baselines: Naive (Algorithm 1), Libpq (one 64-bit mem1 load
//     per vector, §3.1), AVX (vertical SIMD additions over 8 vectors,
//     Figure 4) and Gather (SIMD gather lookups over the transposed
//     layout, Figure 5);
//   - QuantizationOnly, the §5.5 ablation;
//   - the per-kernel operation mixes, and a Stats that carries them to
//     internal/perf for pricing.
//
// Every kernel returns bit-identical top-k results on identical input
// (DESIGN.md §6). Everything that decides what a Fast Scan prunes — the
// keep phase and its bounds, the distance quantizer and its threshold
// rule, the minimum tables, the group visit order, the exact re-check —
// is internal/scan's, called through its exported seam and never copied
// here, so the vector/block counters of a model scan equal those of the
// serving scan of the same bound at every shape, carried heap or not;
// the tests of this package hold the two to that (DESIGN.md §9).
//
// Importers: internal/bench, cmd/pqbench (through it), and tests.
// Nothing a served query runs links this package, internal/simd or
// internal/perf (deps_test.go at the root).
package model

import (
	"fmt"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/topk"
)

// M is the code length of the PQ 8×8 configuration every kernel targets.
const M = scan.M

// Kernel labels a laboratory kernel with the name the paper's figures
// use.
type Kernel int

const (
	// KernelNaive is Algorithm 1 verbatim.
	KernelNaive Kernel = iota
	// KernelLibpq is the libpq-optimized PQ Scan.
	KernelLibpq
	// KernelAVX is the vertical-SIMD-additions PQ Scan variant.
	KernelAVX
	// KernelGather is the SIMD-gather PQ Scan variant.
	KernelGather
	// KernelFastScan is PQ Fast Scan (§4) on 128-bit registers.
	KernelFastScan
	// KernelQuantOnly is the quantization-only ablation (§5.5).
	KernelQuantOnly
)

// Kernels lists every kernel, in the order the paper introduces them.
func Kernels() []Kernel {
	return []Kernel{
		KernelNaive, KernelLibpq, KernelAVX, KernelGather,
		KernelFastScan, KernelQuantOnly,
	}
}

// String names the kernel with the labels used in the paper's figures.
func (k Kernel) String() string {
	switch k {
	case KernelNaive:
		return "naive"
	case KernelLibpq:
		return "libpq"
	case KernelAVX:
		return "avx"
	case KernelGather:
		return "gather"
	case KernelFastScan:
		return "fastpq"
	case KernelQuantOnly:
		return "quantonly"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// Run executes the labelled kernel over p from an empty heap. fs is p's
// Fast Scan layout, consulted by the Fast Scan label only; keep is
// the keep fraction of the quantization-only ablation.
func Run(kernel Kernel, p *scan.Partition, fs *scan.FastScan, t quantizer.Tables, k int, keep float64) ([]topk.Result, Stats, error) {
	var (
		res   []topk.Result
		stats Stats
	)
	switch kernel {
	case KernelNaive:
		res, stats = Naive(p, t, k)
	case KernelLibpq:
		res, stats = Libpq(p, t, k)
	case KernelAVX:
		res, stats = AVX(p, t, k)
	case KernelGather:
		res, stats = Gather(p, t, k)
	case KernelQuantOnly:
		res, stats = QuantizationOnly(p, t, k, keep)
	case KernelFastScan:
		res, stats = Scan(fs, t, k)
	default:
		return nil, Stats{}, fmt.Errorf("model: unknown kernel %v", kernel)
	}
	return res, stats, nil
}

// Stats is one model scan's record: the vector/block counters every
// implementation shares, plus Ops, the dynamic operation mix handed to
// internal/perf.
type Stats struct {
	scan.Stats
	Ops perf.OpCounts
}

// Merge accumulates another scan's counts into s.
func (s *Stats) Merge(o Stats) {
	s.Stats.Merge(o.Stats)
	s.Ops.Add(o.Ops)
}

// Counters prices the scan on arch.
func (s Stats) Counters(arch perf.Arch) perf.Counters {
	return perf.Estimate(s.Ops, arch)
}

// Per-vector / per-block operation mixes of each kernel. These constants
// are the analytical counterparts of the kernels' inner loops and are the
// numbers priced by internal/perf; see the package comment of
// internal/perf for why this reproduces the paper's counter studies.
var (
	// naivePerVector: Algorithm 1. 8 single-byte index loads, 8 float
	// table loads, 8 float additions plus index arithmetic, loop control.
	naivePerVector = perf.OpCounts{
		ScalarLoad8: 8, ScalarLoadF: 8, ScalarALU: 12, ScalarBranch: 2,
	}
	// libpqPerVector: one 64-bit load, 8 shift+mask extractions, 8 float
	// loads and additions. More instructions than naive but fewer loads,
	// matching §3.1 ("the increase in the number of instructions offsets
	// the increase in IPC and the decrease in L1 loads").
	libpqPerVector = perf.OpCounts{
		ScalarLoad64: 1, ScalarLoadF: 8, ScalarALU: 24, ScalarBranch: 2,
	}
	// avxPer8Vectors: Figure 4. Per component j: one 64-bit load of the 8
	// indexes (transposed layout), 8 scalar table loads, 8 register-way
	// inserts, one vertical SIMD addition. Then 8 extract+compare steps.
	avxPer8Vectors = perf.OpCounts{
		ScalarLoad64: 8, ScalarLoadF: 64, SIMDInsert: 64, SIMDALU: 8,
		ScalarALU: 16, ScalarBranch: 8,
	}
	// gatherPer8Vectors: Figure 5. Per component j: one SIMD load of 8
	// indexes, widening, one 8-way gather, one SIMD addition; then 8
	// extract+compare steps. The gather's 34 µops and 10-cycle reciprocal
	// throughput (paper Table 2) are priced by internal/perf.
	gatherPer8Vectors = perf.OpCounts{
		SIMDLoad: 8, SIMDALU: 24, Gather256: 8,
		ScalarALU: 16, ScalarBranch: 8,
	}
	// tablePass: one pass over the 8x256 distance tables — quantizing
	// the entries and reducing the portions to minimum tables.
	tablePass = perf.OpCounts{ScalarLoadF: 256 * M, ScalarALU: 512 * M}
)

// visitSlots is the size of the insertion buffer scan.VisitOrder
// selects the groups a scan visits first with.
const visitSlots = 8

// visitOrderOps prices scan.VisitOrder over groups groups of a layout
// grouped on c components: per group, c minimum-table byte loads summed
// by c-1 adds into the key bound, one compare against the insertion
// buffer's worst slot and its branch; per scan, one pass of the
// insertion through the buffer's slots (a compare, a move and a branch
// each). At c = 0 the order is the identity and costs nothing.
func visitOrderOps(c, groups int) perf.OpCounts {
	if c == 0 {
		return perf.OpCounts{}
	}
	ops := perf.OpCounts{
		ScalarLoad8:  float64(c),
		ScalarALU:    float64(c),
		ScalarBranch: 1,
	}.Scale(float64(groups))
	ops.Add(perf.OpCounts{ScalarALU: 2 * visitSlots, ScalarBranch: visitSlots})
	return ops
}

// groupTestOps prices scan.GroupBounds over a scan of groups groups of
// a layout grouped on c components: per scan, the floor — the least of
// each ungrouped minimum table, 16 byte loads and 16 compares or adds a
// row; per group, the test — c minimum-table byte loads added to the
// floor, one compare against the entry threshold and its branch.
func groupTestOps(c, groups int) perf.OpCounts {
	ops := perf.OpCounts{
		ScalarLoad8:  float64(c),
		ScalarALU:    float64(c + 1),
		ScalarBranch: 1,
	}.Scale(float64(groups))
	ops.Add(perf.OpCounts{ScalarLoad8: float64(16 * (M - c)), ScalarALU: float64(16 * (M - c))})
	return ops
}

// Naive is Algorithm 1 — scan.Naive, the oracle — with its operation
// mix attached.
func Naive(p *scan.Partition, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	res, st := scan.Naive(p, t, k)
	return res, Stats{Stats: st, Ops: naivePerVector.Scale(float64(p.N))}
}

// Libpq prices the libpq optimization — the 8 centroid indexes of a
// vector fetched with a single 64-bit load and extracted with shifts —
// over scan.LibpqRange, the serving exact loop, whose distance
// accumulation order is identical to Naive's.
func Libpq(p *scan.Partition, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	scan.Check8x8(t)
	heap := topk.New(k)
	scan.LibpqRange(p, 0, p.N, t, heap)
	stats := Stats{Stats: scan.Stats{Scanned: p.N}}
	stats.Ops = libpqPerVector.Scale(float64(p.N))
	return heap.Results(), stats
}

// AVX scans the partition with the vertical-addition structure of
// Figure 4: distances to 8 vectors are accumulated simultaneously in an
// 8-way register image, with each way set individually after a scalar
// table lookup. Results are identical to Naive because each way performs
// the same additions in the same order.
func AVX(p *scan.Partition, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	return vertical8(p, t, k, avxPer8Vectors)
}

// Gather scans the partition with SIMD gather semantics (Figure 5): for
// each component, the 8 indexes of a transposed block select 8 table
// entries in one (expensive) gather, then one vertical addition
// accumulates them. Results are identical to Naive.
func Gather(p *scan.Partition, t quantizer.Tables, k int) ([]topk.Result, Stats) {
	return vertical8(p, t, k, gatherPer8Vectors)
}

// vertical8 is the loop AVX and Gather share: 8 vectors of a transposed
// block accumulated way by way, component by component. In Go the 8
// scalar lookups plus per-way inserts of Figure 4 and the one vpgatherdd
// of Figure 5 are the same eight indexed loads; what distinguishes the
// two kernels is the instruction mix per8 the hardware would execute
// for them.
func vertical8(p *scan.Partition, t quantizer.Tables, k int, per8 perf.OpCounts) ([]topk.Result, Stats) {
	scan.Check8x8(t)
	heap := topk.New(k)
	hasDead := p.HasDead()
	tr := layout.NewTransposed(p.FlatCodes())
	var acc [8]float32
	full := tr.FullBlocks()
	for b := 0; b < full; b++ {
		for v := range acc {
			acc[v] = 0
		}
		for j := 0; j < M; j++ {
			comps := tr.Component(b, j)
			row := t.Data[j*256:]
			for v := 0; v < 8; v++ {
				acc[v] += row[int(comps[v])]
			}
		}
		for v := 0; v < 8; v++ {
			if hasDead && p.DeadAt(b*8+v) {
				continue
			}
			heap.Push(p.ID(b*8+v), acc[v])
		}
	}
	// Row-major tail, scanned naively.
	tail := p.N - full*8
	for i := full * 8; i < p.N; i++ {
		if hasDead && p.DeadAt(i) {
			continue
		}
		heap.Push(p.ID(i), scan.ADC8(p.Code(i), t))
	}
	stats := Stats{Stats: scan.Stats{Scanned: p.N}}
	stats.Ops = per8.Scale(float64(full))
	stats.Ops.Add(naivePerVector.Scale(float64(tail)))
	return heap.Results(), stats
}

// QuantizationOnly is the §5.5 ablation: lower bounds use full 256-entry
// quantized tables (8-bit entries, exact 8-bit indexes) with no grouping
// and no minimum tables. A 256-entry table does not fit an SSE or AVX2
// register, so on the paper's hardware this variant offers no speedup;
// it isolates the pruning power of the distance-quantization technique
// alone, and keeps the §5.5 figure. With AVX-512 VBMI two permutes look
// a byte up in a whole row, the exact bound of asm-avx512vbmi, which
// ScanExactInto models on the grouped layout. Results remain bit-identical to
// PQ Scan. The bounds come from scan.KeepBounds, the source every Fast
// Scan uses, which is what keeps the ablation's pruning counters
// comparable with theirs.
func QuantizationOnly(p *scan.Partition, t quantizer.Tables, k int, keep float64) ([]topk.Result, Stats) {
	scan.Check8x8(t)
	heap := topk.New(k)
	keepN := int(keep * float64(p.N))
	stats := Stats{Stats: scan.Stats{Scanned: p.N, KeepScanned: keepN}}
	var mins scan.WindowMinima
	mins.Fill(t)
	qmin, qmax, _ := scan.KeepBounds(p, keepN, p.N, t, &mins, heap) // its own keep region never puts an empty heap out of reach
	stats.Ops.Add(libpqPerVector.Scale(float64(keepN)))
	dq := scan.NewDistQuantizer(qmin, qmax)
	qt := make([]uint8, M*256)
	for i, v := range t.Data[:M*256] {
		qt[i] = dq.Quantize(v)
	}
	stats.Ops.Add(tablePass)

	thrVal, haveThr := heap.Threshold()
	t8 := dq.PruneThreshold(thrVal, haveThr)
	hasDead := p.HasDead()

	for i := keepN; i < p.N; i++ {
		code := p.Code(i)
		if hasDead && p.DeadAt(i) {
			stats.LowerBounds++
			stats.Pruned++
			continue
		}
		// Saturated 8-bit accumulation, scalar (no SIMD possible with
		// 256-entry tables).
		s := int16(qt[int(code[0])])
		s += int16(qt[256+int(code[1])])
		s += int16(qt[2*256+int(code[2])])
		s += int16(qt[3*256+int(code[3])])
		s += int16(qt[4*256+int(code[4])])
		s += int16(qt[5*256+int(code[5])])
		s += int16(qt[6*256+int(code[6])])
		s += int16(qt[7*256+int(code[7])])
		if s > 127 {
			s = 127
		}
		stats.LowerBounds++
		if int8(s) > t8 {
			stats.Pruned++
			continue
		}
		stats.Candidates++
		d := scan.ADC8(code, t)
		if heap.Push(p.ID(i), d) {
			if thr, ok := heap.Threshold(); ok {
				t8 = dq.PruneThreshold(thr, true)
			}
		}
	}
	// Aggregate accounting: one scalar 8-bit lower bound per vector plus
	// one exact re-check per candidate.
	stats.Ops.Add(perf.OpCounts{
		ScalarLoad64: 1, ScalarLoad8: 8, ScalarALU: 18, ScalarBranch: 2,
	}.Scale(float64(stats.LowerBounds)))
	stats.Ops.Add(libpqPerVector.Scale(float64(stats.Candidates)))
	return heap.Results(), stats
}

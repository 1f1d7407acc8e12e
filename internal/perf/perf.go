// Package perf is the analytical CPU cost model used to reproduce the
// paper's performance-counter studies (its Figures 3 and 15 and Tables 1
// and 2) without hardware counters.
//
// Rationale (see DESIGN.md §7): the paper's performance
// argument is a counting argument. PQ Scan performs 9-16 L1 loads and ~34
// scalar instructions per scanned vector; PQ Fast Scan performs ~1.3 L1
// loads and ~3.7 SIMD instructions per vector; a gather instruction costs
// 34 µops with a 10-cycle reciprocal throughput where pshufb costs 1 µop at
// 0.5 cycles (paper Table 2). Our scan kernels count their dynamic
// operations exactly; this package prices those counts using the published
// per-instruction properties and a small set of micro-architectural
// resources (front-end width, load ports, shuffle port, memory latency),
// yielding cycles, instructions, µops, L1 loads and IPC per scanned vector.
//
// The model is deliberately simple — a bottleneck (roofline-style) model:
// cycles = max over resources of the total demand placed on that resource —
// because that is sufficient to preserve the paper's shape: who wins, by
// roughly what factor, and why (which resource saturates).
package perf

import "fmt"

// OpCounts records the dynamic operation mix of one scan, bucketed by
// instruction class. Counts are totals for the whole scan; divide by the
// number of scanned vectors to obtain the per-vector figures the paper
// reports.
type OpCounts struct {
	// Scalar classes.
	ScalarLoad8  float64 // 1-byte loads of centroid indexes (mem1 accesses)
	ScalarLoad64 float64 // 8-byte loads of packed codes (libpq-style mem1)
	ScalarLoadF  float64 // 4-byte float loads from distance tables (mem2)
	ScalarALU    float64 // scalar add/shift/mask/compare ALU operations
	ScalarBranch float64 // conditional branches (loop and pruning control)

	// SIMD classes (128-bit unless noted).
	SIMDLoad    float64 // movdqu from memory
	SIMDInsert  float64 // pinsrd/pinsrb-style per-way register fills
	SIMDALU     float64 // padds/pand/por/pxor/psrlw and vertical float adds
	SIMDShuffle float64 // pshufb in-register table lookups
	SIMDCompare float64 // pcmpgtb
	SIMDMovmsk  float64 // pmovmskb
	Gather256   float64 // AVX2 vpgatherdd (8x32-bit table gather)
}

// Add accumulates other into c.
func (c *OpCounts) Add(other OpCounts) {
	c.ScalarLoad8 += other.ScalarLoad8
	c.ScalarLoad64 += other.ScalarLoad64
	c.ScalarLoadF += other.ScalarLoadF
	c.ScalarALU += other.ScalarALU
	c.ScalarBranch += other.ScalarBranch
	c.SIMDLoad += other.SIMDLoad
	c.SIMDInsert += other.SIMDInsert
	c.SIMDALU += other.SIMDALU
	c.SIMDShuffle += other.SIMDShuffle
	c.SIMDCompare += other.SIMDCompare
	c.SIMDMovmsk += other.SIMDMovmsk
	c.Gather256 += other.Gather256
}

// Scale multiplies every bucket by f and returns the result.
func (c OpCounts) Scale(f float64) OpCounts {
	return OpCounts{
		ScalarLoad8:  c.ScalarLoad8 * f,
		ScalarLoad64: c.ScalarLoad64 * f,
		ScalarLoadF:  c.ScalarLoadF * f,
		ScalarALU:    c.ScalarALU * f,
		ScalarBranch: c.ScalarBranch * f,
		SIMDLoad:     c.SIMDLoad * f,
		SIMDInsert:   c.SIMDInsert * f,
		SIMDALU:      c.SIMDALU * f,
		SIMDShuffle:  c.SIMDShuffle * f,
		SIMDCompare:  c.SIMDCompare * f,
		SIMDMovmsk:   c.SIMDMovmsk * f,
		Gather256:    c.Gather256 * f,
	}
}

// Instructions returns the total dynamic instruction count.
func (c OpCounts) Instructions() float64 {
	return c.ScalarLoad8 + c.ScalarLoad64 + c.ScalarLoadF + c.ScalarALU +
		c.ScalarBranch + c.SIMDLoad + c.SIMDInsert + c.SIMDALU +
		c.SIMDShuffle + c.SIMDCompare + c.SIMDMovmsk + c.Gather256
}

// L1Loads returns the total number of L1 data-cache load accesses. A
// 256-bit gather performs one cache access per element it loads (8 for
// vpgatherdd), which is why the paper finds gather "performs 1 memory
// access for each element it loads" (§3.2).
func (c OpCounts) L1Loads() float64 {
	return c.ScalarLoad8 + c.ScalarLoad64 + c.ScalarLoadF + c.SIMDLoad +
		8*c.Gather256
}

// Uops returns the total micro-operation count using the per-class µop
// weights of Cost.
func (c OpCounts) Uops() float64 {
	var u float64
	for _, t := range classTable {
		u += t.count(c) * t.cost.Uops
	}
	return u
}

// Cost describes one instruction class: its latency in cycles, reciprocal
// throughput in cycles per instruction, the number of µops it decodes
// into, and which execution resource it occupies. Values for gather and
// pshufb are the measured Haswell numbers the paper reports in its
// Table 2: gather has latency 18, reciprocal throughput 10 and 34 µops;
// pshufb has latency 1, reciprocal throughput 0.5 and 1 µop.
type Cost struct {
	Latency float64
	RecipTP float64
	Uops    float64
	Port    Resource
}

// Resource identifies the execution resource an instruction class
// contends for in the bottleneck model.
type Resource int

const (
	// ResFrontend is instruction issue (decode/rename), shared by all
	// classes via their µop counts.
	ResFrontend Resource = iota
	// ResLoad is the L1 data-cache load ports.
	ResLoad
	// ResALU is the scalar/vector arithmetic ports.
	ResALU
	// ResShuffle is the (single) shuffle port executing pshufb.
	ResShuffle
	numResources
)

// costs holds the per-class instruction properties shared by every
// modeled architecture. Per-architecture differences (frequency, number
// of load ports, issue width, cache latencies, gather support) live in
// Arch.
var costs = struct {
	ScalarLoad8, ScalarLoad64, ScalarLoadF Cost
	ScalarALU, ScalarBranch                Cost
	SIMDLoad, SIMDInsert, SIMDALU          Cost
	SIMDShuffle, SIMDCompare, SIMDMovmsk   Cost
	Gather256                              Cost
}{
	ScalarLoad8:  Cost{Latency: 4, RecipTP: 0.5, Uops: 1, Port: ResLoad},
	ScalarLoad64: Cost{Latency: 4, RecipTP: 0.5, Uops: 1, Port: ResLoad},
	ScalarLoadF:  Cost{Latency: 4, RecipTP: 0.5, Uops: 1, Port: ResLoad},
	ScalarALU:    Cost{Latency: 1, RecipTP: 0.25, Uops: 1, Port: ResALU},
	ScalarBranch: Cost{Latency: 1, RecipTP: 0.5, Uops: 1, Port: ResALU},
	SIMDLoad:     Cost{Latency: 4, RecipTP: 0.5, Uops: 1, Port: ResLoad},
	SIMDInsert:   Cost{Latency: 2, RecipTP: 1, Uops: 2, Port: ResShuffle},
	SIMDALU:      Cost{Latency: 1, RecipTP: 0.5, Uops: 1, Port: ResALU},
	// Paper Table 2 (Haswell): pshufb latency 1, throughput 0.5, 1 µop.
	SIMDShuffle: Cost{Latency: 1, RecipTP: 0.5, Uops: 1, Port: ResShuffle},
	SIMDCompare: Cost{Latency: 1, RecipTP: 0.5, Uops: 1, Port: ResALU},
	SIMDMovmsk:  Cost{Latency: 3, RecipTP: 1, Uops: 1, Port: ResALU},
	// Paper Table 2 (Haswell): gather latency 18, throughput 10, 34 µops.
	Gather256: Cost{Latency: 18, RecipTP: 10, Uops: 34, Port: ResLoad},
}

type classEntry struct {
	name  string
	cost  Cost
	count func(OpCounts) float64
}

var classTable = []classEntry{
	{"scalar-load8", costs.ScalarLoad8, func(c OpCounts) float64 { return c.ScalarLoad8 }},
	{"scalar-load64", costs.ScalarLoad64, func(c OpCounts) float64 { return c.ScalarLoad64 }},
	{"scalar-loadf", costs.ScalarLoadF, func(c OpCounts) float64 { return c.ScalarLoadF }},
	{"scalar-alu", costs.ScalarALU, func(c OpCounts) float64 { return c.ScalarALU }},
	{"scalar-branch", costs.ScalarBranch, func(c OpCounts) float64 { return c.ScalarBranch }},
	{"simd-load", costs.SIMDLoad, func(c OpCounts) float64 { return c.SIMDLoad }},
	{"simd-insert", costs.SIMDInsert, func(c OpCounts) float64 { return c.SIMDInsert }},
	{"simd-alu", costs.SIMDALU, func(c OpCounts) float64 { return c.SIMDALU }},
	{"simd-shuffle", costs.SIMDShuffle, func(c OpCounts) float64 { return c.SIMDShuffle }},
	{"simd-compare", costs.SIMDCompare, func(c OpCounts) float64 { return c.SIMDCompare }},
	{"simd-movmsk", costs.SIMDMovmsk, func(c OpCounts) float64 { return c.SIMDMovmsk }},
	{"gather256", costs.Gather256, func(c OpCounts) float64 { return c.Gather256 }},
}

// Arch is a micro-architecture profile. The four profiles mirror the four
// platforms of the paper's Table 5 (laptop A = Haswell, workstation B =
// Ivy Bridge, server C = Sandy Bridge, server D = Nehalem).
type Arch struct {
	Name       string
	FreqGHz    float64 // sustained single-core clock
	IssueWidth float64 // µops issued per cycle
	LoadPorts  float64 // concurrent L1 loads per cycle
	L1Latency  float64 // cycles (paper Table 1: 4-5)
	L2Latency  float64 // cycles (paper Table 1: 11-13)
	L3Latency  float64 // cycles (paper Table 1: 25-40)
	L1KiB      int     // L1 data cache size
	L2KiB      int     // L2 cache size
	L3KiB      int     // L3 cache size (per-core share not applied)
	HasGather  bool    // AVX2 gather available (Haswell onward)
	MemBWGBs   float64 // sustained DRAM bandwidth, GB/s (paper §5.8: "The memory bandwidth of Intel server processors ranges from 40 GB/s to 70 GB/s")
	Cores      int     // physical cores, for multi-query scaling
}

// Table 5 of the paper (frequencies are the sustained turbo mid-points).
var (
	Haswell = Arch{
		Name: "laptop(A)-Haswell", FreqGHz: 3.3, IssueWidth: 4,
		LoadPorts: 2, L1Latency: 4, L2Latency: 11, L3Latency: 30,
		L1KiB: 32, L2KiB: 256, L3KiB: 6 * 1024, HasGather: true,
		MemBWGBs: 25.6, Cores: 4,
	}
	IvyBridge = Arch{
		Name: "workstation(B)-IvyBridge", FreqGHz: 2.5, IssueWidth: 4,
		LoadPorts: 2, L1Latency: 4, L2Latency: 12, L3Latency: 30,
		L1KiB: 32, L2KiB: 256, L3KiB: 10 * 1024, HasGather: false,
		MemBWGBs: 42.6, Cores: 4,
	}
	SandyBridge = Arch{
		Name: "server(C)-SandyBridge", FreqGHz: 2.8, IssueWidth: 4,
		LoadPorts: 2, L1Latency: 4, L2Latency: 12, L3Latency: 32,
		L1KiB: 32, L2KiB: 256, L3KiB: 15 * 1024, HasGather: false,
		MemBWGBs: 51.2, Cores: 6,
	}
	Nehalem = Arch{
		Name: "server(D)-Nehalem", FreqGHz: 3.1, IssueWidth: 4,
		LoadPorts: 1, L1Latency: 4, L2Latency: 11, L3Latency: 38,
		L1KiB: 32, L2KiB: 256, L3KiB: 8 * 1024, HasGather: false,
		MemBWGBs: 32, Cores: 4,
	}
)

// Architectures lists the four modeled platforms in the paper's order.
var Architectures = []Arch{Haswell, IvyBridge, SandyBridge, Nehalem}

// Counters is the output of the model: the values a `perf stat` run would
// report for the scan, as in the paper's Figures 3 and 15.
type Counters struct {
	Cycles       float64
	Instructions float64
	Uops         float64
	L1Loads      float64
	Bottleneck   string // which resource bound the cycle count
}

// IPC returns instructions per cycle.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.Instructions / c.Cycles
}

// Seconds converts the cycle count to wall-clock seconds on arch.
func (c Counters) Seconds(arch Arch) float64 {
	return c.Cycles / (arch.FreqGHz * 1e9)
}

// Estimate prices an operation mix on arch. The cycle count is the
// bottleneck-resource demand:
//
//	cycles = max( µops / issueWidth,
//	              Σ loads · recipTP / loadPorts·0.5⁻¹-normalized,
//	              Σ ALU-class · recipTP,
//	              Σ shuffle-class · recipTP,
//	              latency exposure of serialized long-latency ops )
//
// The last term models gather's poor pipelining ("it is necessary to wait
// 10 cycles to pipeline a new gather instruction after one has been
// issued", §3.2): long-latency, low-throughput instructions expose their
// reciprocal throughput directly.
func Estimate(c OpCounts, arch Arch) Counters {
	var demand [numResources]float64
	for _, t := range classTable {
		n := t.count(c)
		if n == 0 {
			continue
		}
		demand[ResFrontend] += n * t.cost.Uops / arch.IssueWidth
		switch t.cost.Port {
		case ResLoad:
			// Class RecipTP values assume two load ports; rescale for
			// single-load-port parts (Nehalem).
			demand[ResLoad] += n * t.cost.RecipTP * (2 / arch.LoadPorts)
		case ResALU:
			demand[ResALU] += n * t.cost.RecipTP
		case ResShuffle:
			demand[ResShuffle] += n * t.cost.RecipTP
		}
	}
	cycles := 0.0
	bottleneck := ResFrontend
	for res, d := range demand {
		if d > cycles {
			cycles = d
			bottleneck = Resource(res)
		}
	}
	return Counters{
		Cycles:       cycles,
		Instructions: c.Instructions(),
		Uops:         c.Uops(),
		L1Loads:      c.L1Loads(),
		Bottleneck:   bottleneck.String(),
	}
}

// String names the resource for reports.
func (r Resource) String() string {
	switch r {
	case ResFrontend:
		return "frontend"
	case ResLoad:
		return "load-ports"
	case ResALU:
		return "alu-ports"
	case ResShuffle:
		return "shuffle-port"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// CacheLevel classifies where a lookup table of tableBytes bytes resides
// on arch and the load-to-use latency of that level, reproducing the
// paper's Table 1 analysis of PQ 16x4 / 8x8 / 4x16 distance tables.
func CacheLevel(arch Arch, tableBytes int) (level string, latency float64) {
	switch {
	case tableBytes <= arch.L1KiB*1024:
		return "L1", arch.L1Latency
	case tableBytes <= arch.L2KiB*1024:
		return "L2", arch.L2Latency
	case tableBytes <= arch.L3KiB*1024:
		return "L3", arch.L3Latency
	default:
		return "DRAM", arch.L3Latency * 4
	}
}

// ConfigScanCycles models the per-vector cycle cost of a naive PQ Scan
// for an arbitrary PQ m×b configuration on arch, completing the paper's
// Table 1 argument for why PQ 8×8 wins: each scanned vector performs m
// mem1 loads (always L1 thanks to hardware prefetching), m mem2 loads
// that hit whichever cache level fits the m·k*·4-byte distance tables, m
// additions and loop control. Load-port pressure governs L1-resident
// configurations; exposed latency (amortized over mlp outstanding
// misses) governs L3-resident ones — "PQ 4×16 distance tables are stored
// in the L3 cache which has a 5 times higher latency" (§3.1).
func ConfigScanCycles(m, kstar int, arch Arch) float64 {
	const mlp = 4 // simultaneous outstanding loads the OoO window sustains
	tableBytes := m * kstar * 4
	_, lat := CacheLevel(arch, tableBytes)
	fm := float64(m)
	frontend := (2*fm + fm + 4) / arch.IssueWidth // loads + adds + loop
	loadPorts := 2 * fm * 0.5 * (2 / arch.LoadPorts)
	latency := fm * (lat - arch.L1Latency) / mlp // extra exposure past L1
	cycles := frontend
	if loadPorts > cycles {
		cycles = loadPorts
	}
	return cycles + latency
}

// GatherCost and PshufbCost expose the paper's Table 2 rows for reports.
func GatherCost() Cost { return costs.Gather256 }

// PshufbCost returns the modeled cost of pshufb (paper Table 2).
func PshufbCost() Cost { return costs.SIMDShuffle }

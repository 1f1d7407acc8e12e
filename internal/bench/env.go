// Package bench is the experiment harness: one driver per table and
// figure of the paper's evaluation section (§5), each printing the same
// rows or series the paper reports. Drivers are shared by cmd/pqbench and
// the root-level testing.B benchmarks.
//
// Scale note (see DESIGN.md §8): the paper scans 3.2-25 M
// vector partitions of ANN_SIFT1B; the default harness scale builds a
// synthetic index two orders of magnitude smaller so every experiment
// runs in seconds on one core. Reported quantities are per-vector rates,
// fractions and ratios, which preserve the paper's shape; raw wall-clock
// milliseconds are reported both as modeled values (internal/perf, the
// hardware-counter substitution) and as measured Go process times.
package bench

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/scan/model"
	"pqfastscan/internal/topk"
	"pqfastscan/internal/vec"
)

// Scale sizes an experiment environment.
type Scale struct {
	Name       string
	LearnN     int
	BaseN      int
	QueryN     int
	Partitions int
	Seed       uint64
}

// SmallScale keeps full-suite runs (go test -bench=.) within seconds.
var SmallScale = Scale{
	Name: "small", LearnN: 8000, BaseN: 120000, QueryN: 16, Partitions: 8, Seed: 42,
}

// DefaultScale is used by cmd/pqbench.
var DefaultScale = Scale{
	Name: "default", LearnN: 10000, BaseN: 200000, QueryN: 24, Partitions: 8, Seed: 42,
}

// LargeScale approaches the paper's per-partition regime more closely
// (minutes of setup on one core).
var LargeScale = Scale{
	Name: "large", LearnN: 20000, BaseN: 1000000, QueryN: 32, Partitions: 8, Seed: 42,
}

// Env holds the shared dataset and index of an experiment run. Build it
// once per scale; experiments only read it.
type Env struct {
	Scale   Scale
	Learn   vec.Matrix
	Base    vec.Matrix
	Queries vec.Matrix
	Index   *index.Index

	// route[i] is the partition query i falls in; tables[i] its distance
	// tables for that partition (Steps 1-2 of Algorithm 1, computed once).
	route  []int
	tables []quantizer.Tables

	// Pool is a larger query set used by fixed-partition experiments:
	// the paper evaluates each partition with the queries the index
	// routes to it ("each query is directed to the most relevant
	// partition which is then scanned", §5.1), so experiments pinned to
	// one partition must draw queries that actually belong there.
	Pool      vec.Matrix
	poolRoute []int

	// parts holds the index's partitions in the order Build made their
	// rows in (inBuildOrder), the order every model scan and layout of
	// the experiments starts from.
	parts []*scan.Partition

	mu       sync.Mutex
	fastOpts map[fastKey]*scan.FastScan
}

type fastKey struct {
	part    int
	keepPct int // keep*1e4 to stay hashable
	c       int
}

// NewEnv generates data, builds the index and precomputes query routing.
func NewEnv(s Scale) (*Env, error) {
	gen := dataset.NewGenerator(dataset.Config{Seed: s.Seed})
	env := &Env{
		Scale:    s,
		Learn:    gen.Generate(s.LearnN),
		Base:     gen.Generate(s.BaseN),
		Queries:  gen.Generate(s.QueryN),
		fastOpts: make(map[fastKey]*scan.FastScan),
	}
	opt := index.DefaultOptions()
	opt.Partitions = s.Partitions
	opt.Seed = s.Seed
	ix, err := index.Build(env.Learn, env.Base, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: building index: %w", err)
	}
	env.Index = ix
	for _, p := range ix.Parts() {
		env.parts = append(env.parts, inBuildOrder(p))
	}
	env.route = make([]int, s.QueryN)
	env.tables = make([]quantizer.Tables, s.QueryN)
	for i := 0; i < s.QueryN; i++ {
		q := env.Queries.Row(i)
		env.route[i] = ix.RoutePartition(q)
		env.tables[i] = ix.Tables(q, env.route[i])
	}
	env.Pool = gen.Generate(16 * s.Partitions)
	env.poolRoute = make([]int, env.Pool.Rows())
	for i := range env.poolRoute {
		env.poolRoute[i] = ix.RoutePartition(env.Pool.Row(i))
	}
	return env, nil
}

// PoolQueriesFor returns up to max pool-query indexes that the index
// routes to partition part.
func (e *Env) PoolQueriesFor(part, max int) []int {
	var out []int
	for i, p := range e.poolRoute {
		if p == part {
			out = append(out, i)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// PoolTables computes the distance tables of pool query qi against its
// routed partition.
func (e *Env) PoolTables(qi int) (part int, t quantizer.Tables) {
	part = e.poolRoute[qi]
	return part, e.Index.Tables(e.Pool.Row(qi), part)
}

// QueryTables returns the routed partition and precomputed tables of
// query i.
func (e *Env) QueryTables(i int) (part int, t quantizer.Tables) {
	return e.route[i], e.tables[i]
}

// FastScanner returns (and caches) a FastScan kernel for the partition
// with explicit options, over its rows in build order put in the order
// those options read (scan.Ordered).
func (e *Env) FastScanner(part int, opt scan.FastScanOptions) (*scan.FastScan, error) {
	key := fastKey{part: part, keepPct: int(opt.Keep * 1e4), c: opt.GroupComponents}
	e.mu.Lock()
	defer e.mu.Unlock()
	if fs, ok := e.fastOpts[key]; ok {
		return fs, nil
	}
	fs, err := scan.NewFastScan(scan.Ordered(e.parts[part], opt), opt)
	if err != nil {
		return nil, err
	}
	e.fastOpts[key] = fs
	return fs, nil
}

// inBuildOrder returns a copy of p, a tombstone-free partition of an
// index.Build, with its rows in the order Build made them in: ascending
// id. The index keeps each base in the order its own Fast Scan options
// read, so a layout under other options, built from that order, would
// keep other rows in its keep region than one built at Build time.
func inBuildOrder(p *scan.Partition) *scan.Partition {
	rows := make([]int, p.N)
	for i := range rows {
		rows[i] = i
	}
	slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(p.ID(a), p.ID(b)) })
	codes := make([]uint8, 0, p.N*scan.M)
	ids := make([]int64, 0, p.N)
	for _, i := range rows {
		code := p.Code(i)
		codes = append(codes, code[:]...)
		ids = append(ids, p.ID(i))
	}
	return scan.NewPartition(codes, ids)
}

// ScanOutcome is one kernel execution's record.
type ScanOutcome struct {
	Results  []topk.Result
	Stats    model.Stats
	Measured time.Duration // Go wall-clock of the kernel call
}

// scan executes one model kernel over partition part with tables t,
// from an empty heap. Layout construction (cached per option set) is
// outside the measured time.
func (e *Env) scan(kernel model.Kernel, part int, t quantizer.Tables, k int, fsOpt scan.FastScanOptions) (ScanOutcome, error) {
	var fs *scan.FastScan
	if kernel == model.KernelFastScan {
		var err error
		if fs, err = e.FastScanner(part, fsOpt); err != nil {
			return ScanOutcome{}, err
		}
	}
	start := time.Now()
	res, stats, err := model.Run(kernel, e.parts[part], fs, t, k, fsOpt.Keep)
	return ScanOutcome{Results: res, Stats: stats, Measured: time.Since(start)}, err
}

// RunKernel executes one kernel over the routed partition of query qi.
func (e *Env) RunKernel(kernel model.Kernel, qi, k int, fsOpt scan.FastScanOptions) (ScanOutcome, error) {
	part, t := e.QueryTables(qi)
	return e.scan(kernel, part, t, k, fsOpt)
}

// PaperFastOpts is the paper's configuration: the 0.5 % keep default
// and automatic grouping depth.
func PaperFastOpts() scan.FastScanOptions {
	return scan.FastScanOptions{Keep: scan.DefaultKeep, GroupComponents: -1}
}

// HeadlineFastOpts scales the keep fraction to the partition size: the
// paper's keep=0.5% of a 25 M-vector partition yields a 125 000-vector
// temporary scan, ~1000x its topk=100 — so the temporary topk-th neighbor
// (the quantization bound qmax, §4.4) sits at a very selective quantile.
// Reproducing that ratio at a partition two orders of magnitude smaller
// requires a larger keep fraction; we target keepN >= 20·topk while never
// going below the paper's default. The keep-phase overhead stays
// proportional to keep and is reported by the figures that sweep it.
func HeadlineFastOpts(partitionN, topk int) scan.FastScanOptions {
	keep := scan.DefaultKeep
	if partitionN > 0 {
		if scaled := 20 * float64(topk) / float64(partitionN); scaled > keep {
			keep = scaled
		}
	}
	if keep > 0.2 {
		keep = 0.2
	}
	return scan.FastScanOptions{Keep: keep, GroupComponents: -1}
}

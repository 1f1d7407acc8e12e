// Package plan is the per-query planner: given a query and a target
// (min-latency by default, or a recall target), it chooses the probe
// set's two open knobs — nprobe and sequential-vs-parallel probing —
// from what the index snapshot already says: per-partition sizes, dead
// ratios and paged-vs-resident status (index.PlanStatsInto) and the
// cell ranking along the query (index.RankCellsInto).
//
// It does not choose the scan. A planned query runs the documented
// default — PQ Fast Scan on the backend internal/simd/dispatch selected
// at start-up — unless the caller pinned another kernel or backend:
// Fast Scan is the faster loop at every partition size the standing
// benchmark measures and the only one that carries the pruning
// threshold across probed cells, so there is nothing to decide per
// query.
//
// The planner is greedy and statistics-free in the Janus-Datalog sense
// ("When Greedy Beats Optimal"): no catalogs, no search, no history —
// one ranked walk for nprobe, one residency test for parallelism — so
// planning costs microseconds against scans that cost hundreds, and it
// allocates nothing in steady state: all per-query scratch is pooled.
//
// Both choices preserve bit-identity (DESIGN.md §16): sequential and
// parallel probing return identical results for the same probe set, and
// the nprobe choice is a prefix of the same RankCells order WithNProbe
// uses, so a planned query equals the fixed-option query built from its
// Decision.
package plan

import (
	"runtime"
	"sync"

	"pqfastscan/internal/index"
)

// Request describes one planning problem. The PlanX flags say which
// knobs the caller left open — explicit options always win, the planner
// only fills what was not pinned (the conflict semantics the facade
// tests pin down).
type Request struct {
	Query  []float32
	Recall float64 // 0 = min-latency; (0,1] = probe the closest cells covering this live-mass fraction

	PlanNProbe   bool
	PlanParallel bool

	// The pinned probe set, read only to weigh parallelism: the
	// caller's nprobe (when !PlanNProbe) or its explicit cell list
	// (when routing is pinned by WithCells).
	FixedNProbe int
	Cells       []int
}

// Decision is the planner's answer; a knob the Request pinned comes
// back as it was pinned (FixedNProbe, sequential).
type Decision struct {
	NProbe   int
	Parallel bool
}

// scratch pools every per-query buffer so Decide allocates nothing in
// steady state.
type scratch struct {
	ids   []int
	dists []float32
	live  []int
	stats []index.PlanStat
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// rank fills sc.ids with the query's cell ranking. Both buffers are
// sized here because RankCellsInto can hand back only the one it
// returns: a distance buffer it had to grow would be lost, and grown
// again on every query.
func (sc *scratch) rank(ix *index.Index, query []float32) {
	if n := len(sc.stats); cap(sc.ids) < n || cap(sc.dists) < n {
		sc.ids, sc.dists = make([]int, n), make([]float32, n)
	}
	sc.ids = ix.RankCellsInto(query, sc.ids, sc.dists)
}

// Decide plans one query against the index's current snapshot.
func Decide(ix *index.Index, req Request) Decision {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.stats = ix.PlanStatsInto(sc.stats)

	// --- nprobe: a prefix of the RankCells order ------------------------
	//
	// Min-latency keeps the documented single-probe default. A recall
	// target r extends the prefix greedily until the probed cells hold
	// at least fraction r of the live mass (index.RecallPrefix): the
	// mass of the closest cells is the structural surrogate for the
	// chance that the true neighbor's cell was probed — under a
	// uniform-mass assumption the routing miss rate is bounded by the
	// unprobed fraction. The prefix property is what keeps the planned
	// probe set identical to WithNProbe's.
	nprobe := max(req.FixedNProbe, 1)
	ranked := false
	if req.PlanNProbe {
		nprobe = 1
		if req.Recall > 0 {
			sc.rank(ix, req.Query)
			ranked = true
			sc.live = sc.live[:0]
			for _, st := range sc.stats {
				sc.live = append(sc.live, st.N-st.Dead)
			}
			nprobe = index.RecallPrefix(sc.ids, sc.live, req.Recall)
		}
	}
	d := Decision{NProbe: nprobe}

	// --- sequential vs parallel probing ---------------------------------
	//
	// Weighed over the probe set the query will visit: the explicit
	// cells, or the nprobe-prefix of the ranking (a routed single probe
	// has nothing to fan out and is not even ranked).
	if req.PlanParallel {
		probe := req.Cells
		if len(probe) == 0 && nprobe > 1 {
			if !ranked {
				sc.rank(ix, req.Query)
			}
			probe = sc.ids[:min(nprobe, len(sc.ids))]
		}
		paged := false
		for _, c := range probe {
			// An out-of-range cell is rejected by the query's own
			// validation.
			if c >= 0 && c < len(sc.stats) && sc.stats[c].Paged {
				paged = true
				break
			}
		}
		d.Parallel = parallelWorthIt(len(probe), runtime.GOMAXPROCS(0), paged)
	}

	record(req, d)
	return d
}

// parallelWorthIt is the whole parallel rule: fan a query's probes
// across cores when there is more than one of each and a probed
// partition is disk-resident (parallel probes overlap their pool faults
// instead of serializing them). Resident probes stay sequential at
// every size: independent cells each re-learn their own threshold, and
// fanning 100k- and 400k-code resident probe sets out was measured at
// 5.5x the exact re-checks for no wall-clock gain (DESIGN.md §16).
// Bit-identical either way.
func parallelWorthIt(probes, cores int, paged bool) bool {
	return probes > 1 && cores > 1 && paged
}

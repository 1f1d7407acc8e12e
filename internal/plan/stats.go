package plan

import (
	"math/bits"
	"sync/atomic"
)

// Process-wide planner decision counters, mirrored onto the server's
// /stats as the "planner" section. Lock-free: record runs on every
// planned query.
var (
	plannedTotal atomic.Uint64
	parallelPick atomic.Uint64

	// nprobeHist buckets the chosen nprobe: 1, 2, 3-4, 5-8, 9-16,
	// 17-32, 33+.
	nprobeHist [7]atomic.Uint64
)

var nprobeBucketLabels = [7]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33+"}

// nprobeBucket is the power-of-two bucket of n: ceil(log2 n), capped.
func nprobeBucket(n int) int {
	return min(bits.Len(uint(max(n, 1)-1)), len(nprobeHist)-1)
}

func record(req Request, d Decision) {
	plannedTotal.Add(1)
	if req.PlanNProbe {
		nprobeHist[nprobeBucket(d.NProbe)].Add(1)
	}
	if d.Parallel {
		parallelPick.Add(1)
	}
}

// Stats is the JSON document of the planner's behaviour so far: how
// many queries it planned, how many of them it fanned out, and the
// nprobe values it chose.
type Stats struct {
	Planned       uint64            `json:"planned"`
	ParallelPicks uint64            `json:"parallel_picks"`
	NProbeHist    map[string]uint64 `json:"nprobe_hist,omitempty"`
}

// Snapshot captures the counters.
func Snapshot() Stats {
	s := Stats{
		Planned:       plannedTotal.Load(),
		ParallelPicks: parallelPick.Load(),
		NProbeHist:    make(map[string]uint64),
	}
	for i := range nprobeHist {
		if v := nprobeHist[i].Load(); v > 0 {
			s.NProbeHist[nprobeBucketLabels[i]] = v
		}
	}
	return s
}

package plan

import (
	"runtime"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
)

func buildIndex(t *testing.T, partitions int) (*index.Index, func(i int) []float32) {
	t.Helper()
	gen := dataset.NewGenerator(dataset.Config{Seed: 7})
	learn := gen.Generate(3000)
	base := gen.Generate(20000)
	queries := gen.Generate(16)
	opt := index.DefaultOptions()
	opt.Partitions = partitions
	opt.Seed = 7
	ix, err := index.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix, queries.Row
}

func allOpen(q []float32, recall float64) Request {
	return Request{Query: q, Recall: recall, PlanNProbe: true, PlanParallel: true}
}

// TestColdStartKeepsDocumentedDefaults: the planner has no warm state,
// so its very first min-latency decision is already the documented
// default probe set — one probe, sequential — and repeats exactly. (The
// scan that runs it is not the planner's to choose: the facade and
// server tests pin that a planned query runs the default PQ Fast Scan
// on the automatic backend.)
func TestColdStartKeepsDocumentedDefaults(t *testing.T) {
	ix, row := buildIndex(t, 8)
	before := Snapshot()

	d := Decide(ix, allOpen(row(0), 0))
	if d != (Decision{NProbe: 1}) {
		t.Errorf("min-latency decision %+v, want {1 sequential}", d)
	}
	for i := 0; i < 5; i++ {
		if d2 := Decide(ix, allOpen(row(0), 0)); d2 != d {
			t.Fatalf("decision not deterministic: %+v vs %+v", d2, d)
		}
	}
	s := Snapshot()
	if s.Planned != before.Planned+6 || s.NProbeHist["1"] != before.NProbeHist["1"]+6 {
		t.Errorf("counters not recorded: %+v -> %+v", before, s)
	}
}

func TestRecallTargetExtendsPrefix(t *testing.T) {
	ix, row := buildIndex(t, 8)

	q := row(1)
	stats := ix.PlanStatsInto(nil)
	total := 0
	for _, st := range stats {
		total += st.N - st.Dead
	}
	ranked := index.RankCells(q, ix.Coarse)

	last := 0
	for _, recall := range []float64{0.1, 0.5, 0.9, 1.0} {
		d := Decide(ix, allOpen(q, recall))
		if d.NProbe < last {
			t.Errorf("recall %.1f: nprobe %d shrank below %d", recall, d.NProbe, last)
		}
		last = d.NProbe
		// The chosen prefix must cover >= recall of the live mass, and
		// the prefix one shorter must not (greedy minimality).
		mass := func(n int) float64 {
			m := 0
			for _, c := range ranked[:n] {
				m += stats[c].N - stats[c].Dead
			}
			return float64(m)
		}
		need := recall * float64(total)
		if mass(d.NProbe) < need {
			t.Errorf("recall %.1f: prefix %d covers %.0f < %.0f", recall, d.NProbe, mass(d.NProbe), need)
		}
		if d.NProbe > 1 && mass(d.NProbe-1) >= need {
			t.Errorf("recall %.1f: prefix %d not minimal", recall, d.NProbe)
		}
	}
	if last != len(ranked) && last != firstFullCover(ranked, stats) {
		// recall 1.0 must cover all live mass.
		t.Errorf("recall 1.0 chose nprobe %d of %d cells", last, len(ranked))
	}
}

func firstFullCover(ranked []int, stats []index.PlanStat) int {
	total := 0
	for _, st := range stats {
		total += st.N - st.Dead
	}
	m := 0
	for i, c := range ranked {
		m += stats[c].N - stats[c].Dead
		if m >= total {
			return i + 1
		}
	}
	return len(ranked)
}

func TestExplicitDimensionsAreNotPlanned(t *testing.T) {
	ix, row := buildIndex(t, 8)
	// nprobe pinned: the decision carries it through untouched even
	// with a recall target that would pick differently.
	d := Decide(ix, Request{Query: row(3), Recall: 1.0, PlanParallel: true, FixedNProbe: 2})
	if d.NProbe != 2 {
		t.Errorf("pinned nprobe overridden: %+v", d)
	}
	// Parallelism pinned: never set, however heavy the probe set.
	d = Decide(ix, Request{Query: row(3), Recall: 1.0, PlanNProbe: true})
	if d.Parallel {
		t.Errorf("pinned parallelism overridden: %+v", d)
	}
}

// TestParallelNeedsMultiProbeAndWeight is the parallel rule over
// (probes, cores, a paged probe), then Decide feeding it the right
// probe set.
func TestParallelNeedsMultiProbeAndWeight(t *testing.T) {
	for _, tc := range []struct {
		name          string
		probes, cores int
		paged         bool
		want          bool
	}{
		{"single paged probe never", 1, 8, true, false},
		{"single core never, even paged", 4, 1, true, false},
		{"resident multi-probe stays sequential", 4, 8, false, false},
		{"a paged probe fans a multi-probe out", 2, 2, true, true},
	} {
		if got := parallelWorthIt(tc.probes, tc.cores, tc.paged); got != tc.want {
			t.Errorf("%s: parallelWorthIt(%d, %d, %v) = %v", tc.name, tc.probes, tc.cores, tc.paged, got)
		}
	}

	// 8 resident cells: sequential whatever the probe set, routed or
	// explicit.
	ix, row := buildIndex(t, 8)
	for _, req := range []Request{
		allOpen(row(4), 0),
		allOpen(row(4), 1.0),
		{Query: row(4), PlanParallel: true, FixedNProbe: 8},
		{Query: row(4), PlanParallel: true, Cells: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	} {
		if d := Decide(ix, req); d.Parallel {
			t.Errorf("resident query parallelized: %+v -> %+v", req, d)
		}
	}

	// The same cells paged: every multi-probe shape fans out on a
	// multi-core host, a single probe still never does.
	if err := ix.AttachStore(t.TempDir(), 1<<20); err != nil {
		t.Fatal(err)
	}
	multiCore := runtime.GOMAXPROCS(0) > 1
	for _, req := range []Request{
		allOpen(row(4), 1.0),
		{Query: row(4), PlanParallel: true, FixedNProbe: 8},
		{Query: row(4), PlanParallel: true, Cells: []int{2, 5}},
	} {
		if d := Decide(ix, req); d.Parallel != multiCore {
			t.Errorf("paged multi-probe on %d cores: %+v -> %+v", runtime.GOMAXPROCS(0), req, d)
		}
	}
	for _, req := range []Request{
		allOpen(row(4), 0),
		{Query: row(4), PlanParallel: true, Cells: []int{2}},
	} {
		if d := Decide(ix, req); d.Parallel {
			t.Errorf("paged single probe parallelized: %+v -> %+v", req, d)
		}
	}
}

func TestDecideDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; the pooled scratch is regrown")
	}
	ix, row := buildIndex(t, 8)
	q := row(5)
	for _, req := range []Request{
		allOpen(q, 0.9),
		{Query: q, PlanParallel: true, FixedNProbe: 4},
	} {
		// Warm the pooled scratch.
		Decide(ix, req)
		allocs := testing.AllocsPerRun(200, func() {
			Decide(ix, req)
		})
		if allocs != 0 {
			t.Errorf("Decide(%+v) allocates %.1f per query, want 0", req, allocs)
		}
	}
}

package pqfastscan_test

import (
	"context"
	"runtime"
	"testing"

	"pqfastscan"
)

func buildPlannerIndex(t *testing.T) (*pqfastscan.Index, pqfastscan.Matrix) {
	t.Helper()
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 99})
	learn := gen.Generate(3000)
	base := gen.Generate(16000)
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 8
	opt.Seed = 99
	opt.OrderGroups = true
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx, gen.Generate(6)
}

// TestAutoColdStartDefaults: the planner keeps no state to warm, so the
// first WithAuto() query already is the documented default — the same
// single probe, and the default scan: PQ Fast Scan on the automatic
// backend. Results cannot tell kernels apart (they are bit-identical by
// design), so the scan is pinned through its WithStats counters:
// only Fast Scan computes lower bounds, and a planned query's must equal
// the no-option query's exactly.
func TestAutoColdStartDefaults(t *testing.T) {
	idx, queries := buildPlannerIndex(t)
	ctx := context.Background()

	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		want, err := idx.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, err := idx.Search(ctx, q, 10, pqfastscan.WithStats())
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := idx.Search(ctx, q, 10, pqfastscan.WithAuto())
			if err != nil {
				t.Fatal(err)
			}
			sameResultSlices(t, "WithAuto vs default", got.Results, want.Results)
			if len(got.Partitions) != 1 || got.Partitions[0] != want.Partitions[0] {
				t.Fatalf("WithAuto probed %v, default probed %v", got.Partitions, want.Partitions)
			}
			gotStats, err := idx.Search(ctx, q, 10, pqfastscan.WithAuto(), pqfastscan.WithStats())
			if err != nil {
				t.Fatal(err)
			}
			if gotStats.Stats.LowerBounds == 0 || *gotStats.Stats != *wantStats.Stats {
				t.Fatalf("WithAuto did not run the default Fast Scan: stats %+v, default %+v", *gotStats.Stats, *wantStats.Stats)
			}
		}
	}
}

// TestAutoConflictSemantics: explicit options always override the
// planner — its own two knobs are pinned by their options, and kernel
// and backend, which it never plans, stay exactly what the caller said.
func TestAutoConflictSemantics(t *testing.T) {
	idx, queries := buildPlannerIndex(t)
	ctx := context.Background()
	q := queries.Row(0)
	auto := pqfastscan.WithAuto()

	// Explicit nprobe wins over the planner's choice (planner would
	// pick 1 under min-latency; recall target would pick otherwise).
	for _, opts := range [][]pqfastscan.SearchOption{
		{auto, pqfastscan.WithNProbe(3)},
		{pqfastscan.WithTargetRecall(0.5), pqfastscan.WithNProbe(3)},
	} {
		got, err := idx.Search(ctx, q, 10, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Partitions) != 3 {
			t.Fatalf("explicit WithNProbe(3) overridden: probed %v", got.Partitions)
		}
		want, err := idx.Search(ctx, q, 10, pqfastscan.WithNProbe(3))
		if err != nil {
			t.Fatal(err)
		}
		sameResultSlices(t, "auto+nprobe vs nprobe", got.Results, want.Results)
	}

	// Every other option means under WithAuto what it means alone. The
	// scan counters tell the configurations apart where the
	// (bit-identical) results cannot: the exact kernel computes no lower
	// bounds, and parallel cells prune less than one carried threshold.
	// The one knob left open, parallelism of a pinned multi-probe, is
	// planned as DESIGN.md §16 promises on either storage: fanned out
	// when a probed partition is disk-resident (and there is a second
	// core), sequential when all are resident.
	stats, np4 := pqfastscan.WithStats(), pqfastscan.WithNProbe(4)
	planned := []pqfastscan.SearchOption{np4, stats}
	if idx.Internal().Paged() && runtime.GOMAXPROCS(0) > 1 {
		planned = append(planned, pqfastscan.WithParallel())
	}
	for _, c := range []struct {
		name       string
		opts, want []pqfastscan.SearchOption
	}{
		{name: "backend", opts: []pqfastscan.SearchOption{pqfastscan.WithBackend(pqfastscan.BackendSWAR)}},
		{name: "kernel", opts: []pqfastscan.SearchOption{pqfastscan.WithKernel(pqfastscan.KernelNaive)}},
		{name: "kernel+stats", opts: []pqfastscan.SearchOption{pqfastscan.WithKernel(pqfastscan.KernelNaive), stats}},
		{name: "parallel+stats", opts: []pqfastscan.SearchOption{np4, pqfastscan.WithParallel(), stats}},
		{name: "np4+stats", opts: []pqfastscan.SearchOption{np4, stats}, want: planned},
	} {
		if c.want == nil {
			c.want = c.opts
		}
		got, err := idx.Search(ctx, q, 10, append([]pqfastscan.SearchOption{auto}, c.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := idx.Search(ctx, q, 10, c.want...)
		if err != nil {
			t.Fatal(err)
		}
		sameResultSlices(t, "auto+"+c.name, got.Results, want.Results)
		if (got.Stats == nil) != (want.Stats == nil) || (want.Stats != nil && *got.Stats != *want.Stats) {
			t.Fatalf("auto+%s ran a different configuration: stats %+v vs %+v", c.name, got.Stats, want.Stats)
		}
	}

	// Explicit cells pin routing entirely.
	got, err := idx.Search(ctx, q, 10, pqfastscan.WithTargetRecall(1.0), pqfastscan.WithCells(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Partitions) != 2 || got.Partitions[0] != 1 || got.Partitions[1] != 2 {
		t.Fatalf("explicit WithCells overridden: probed %v", got.Partitions)
	}

	// Invalid recall targets are rejected.
	for _, r := range []float64{0, -0.5, 1.01} {
		if _, err := idx.Search(ctx, q, 10, pqfastscan.WithTargetRecall(r)); err == nil {
			t.Errorf("WithTargetRecall(%g) accepted", r)
		}
	}
}

// plannedPrefixLen is how many cells WithTargetRecall(r) probed for each
// of buildPlannerIndex's six queries at the commit before the planner
// lost its kernel dimension — the recall→nprobe rule did not change
// with it. The index build is seeded and reproducible, but its k-means
// sums are float32 and arm64 fuses multiply-adds, so the golden values
// hold on amd64 (where they were taken) and are checked only there.
var plannedPrefixLen = map[float64][6]int{
	0.3:  {3, 3, 3, 2, 2, 3},
	0.7:  {6, 6, 6, 6, 5, 6},
	0.95: {8, 8, 8, 8, 8, 8},
	1.0:  {8, 8, 8, 8, 8, 8},
}

// TestPlannedBitIdentity: whatever the planner picks — min-latency or
// recall-targeted — the answer must be bit-identical to the fixed-option
// query probing the same prefix, and that prefix is the one the parent
// commit's planner picked.
func TestPlannedBitIdentity(t *testing.T) {
	idx, queries := buildPlannerIndex(t)
	ctx := context.Background()

	for _, recall := range []float64{0, 0.3, 0.7, 0.95, 1.0} {
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			var opts []pqfastscan.SearchOption
			if recall == 0 {
				opts = []pqfastscan.SearchOption{pqfastscan.WithAuto()}
			} else {
				opts = []pqfastscan.SearchOption{pqfastscan.WithTargetRecall(recall)}
			}
			got, err := idx.Search(ctx, q, 10, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// The planned probe set must be a prefix of the WithNProbe
			// ranking: reproduce it with the explicit option.
			want, err := idx.Search(ctx, q, 10, pqfastscan.WithNProbe(len(got.Partitions)))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Partitions) != len(want.Partitions) {
				t.Fatalf("recall %g q%d: planned probes %v vs fixed %v", recall, qi, got.Partitions, want.Partitions)
			}
			for i := range want.Partitions {
				if got.Partitions[i] != want.Partitions[i] {
					t.Fatalf("recall %g q%d: planned probe order %v vs fixed %v", recall, qi, got.Partitions, want.Partitions)
				}
			}
			sameResultSlices(t, "planned vs fixed", got.Results, want.Results)
			if golden, ok := plannedPrefixLen[recall]; ok && runtime.GOARCH == "amd64" && len(got.Partitions) != golden[qi] {
				t.Errorf("recall %g q%d: probed %d cells %v, the parent commit probed %d", recall, qi, len(got.Partitions), got.Partitions, golden[qi])
			}
		}
	}
}

// TestAutoSearchBatch: batches accept the planner options and stay
// bit-identical to the fixed-option batch.
func TestAutoSearchBatch(t *testing.T) {
	idx, queries := buildPlannerIndex(t)
	ctx := context.Background()

	got, err := idx.SearchBatch(ctx, queries, 10, pqfastscan.WithAuto())
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.SearchBatch(ctx, queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		sameResultSlices(t, "auto batch vs default batch", got[i].Results, want[i].Results)
	}
}

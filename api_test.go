package pqfastscan_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"pqfastscan"
)

func allKernels() []pqfastscan.Kernel {
	return pqfastscan.Kernels()
}

func sameResultSlices(t *testing.T, label string, a, b []pqfastscan.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: rank %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestSearcherInterface: the index and its preconfigured views are
// interchangeable Searchers, and With pre-applies options.
func TestSearcherInterface(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	q := queries.Row(0)

	var searchers = map[string]pqfastscan.Searcher{
		"index":       idx,
		"multi-probe": idx.With(pqfastscan.WithNProbe(4)),
		"naive-stats": idx.With(pqfastscan.WithKernel(pqfastscan.KernelNaive), pqfastscan.WithStats()),
	}
	for name, s := range searchers {
		res, err := s.Search(ctx, q, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Results) != 10 {
			t.Fatalf("%s: got %d results", name, len(res.Results))
		}
	}

	probe := idx.With(pqfastscan.WithNProbe(4))
	res, err := probe.Search(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 4 {
		t.Fatalf("preconfigured nprobe ignored: probed %v", res.Partitions)
	}
	// A per-call option overrides the preconfigured one.
	res, err = probe.Search(ctx, q, 10, pqfastscan.WithNProbe(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 1 {
		t.Fatalf("per-call override ignored: probed %v", res.Partitions)
	}

	stats, err := searchers["naive-stats"].Search(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats == nil {
		t.Fatal("preconfigured WithStats ignored")
	}
}

func TestSearchValidation(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	q := queries.Row(0)
	parts := len(idx.PartitionSizes())

	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"k=0", func() error { _, err := idx.Search(ctx, q, 0); return err }, "k must be positive"},
		{"k<0", func() error { _, err := idx.Search(ctx, q, -5); return err }, "k must be positive"},
		{"dim mismatch", func() error { _, err := idx.Search(ctx, q[:10], 5); return err }, "dim"},
		{"nprobe negative", func() error {
			_, err := idx.Search(ctx, q, 5, pqfastscan.WithNProbe(-1))
			return err
		}, "nprobe"},
		{"nprobe zero option", func() error {
			_, err := idx.Search(ctx, q, 5, pqfastscan.WithNProbe(0))
			return err
		}, "nprobe"},
		{"nprobe too large", func() error {
			_, err := idx.Search(ctx, q, 5, pqfastscan.WithNProbe(parts+1))
			return err
		}, "nprobe"},
		{"unknown kernel", func() error {
			_, err := idx.Search(ctx, q, 5, pqfastscan.WithKernel(pqfastscan.Kernel(42)))
			return err
		}, "unknown kernel"},
		{"multi-probe k=0", func() error {
			_, err := idx.Search(ctx, q, 0, pqfastscan.WithNProbe(2))
			return err
		}, "k must be positive"},
		{"multi-probe dim mismatch", func() error {
			_, err := idx.Search(ctx, q[:10], 5, pqfastscan.WithNProbe(2))
			return err
		}, "dim"},
		{"batch dim mismatch", func() error {
			bad := pqfastscan.NewMatrix(2, 10)
			_, err := idx.SearchBatch(ctx, bad, 5)
			return err
		}, "dim"},
		{"batch k=0", func() error { _, err := idx.SearchBatch(ctx, queries, 0); return err }, "k must be positive"},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestUnscorableVectorsRejected: a vector whose float32 squared norm is
// not finite — a component whose square overflows, an infinity, a NaN —
// has no distance to anything. Search and Add return an error for it
// instead of an answer full of +Inf or an indexed code for garbage, and
// a rejected Add indexes nothing.
func TestUnscorableVectorsRejected(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	live := idx.Live()
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	for _, x := range []float32{1e30, -1e30, inf, -inf, nan} {
		bad := append([]float32(nil), queries.Row(0)...)
		bad[len(bad)-1] = x
		batch := pqfastscan.NewMatrix(2, len(bad))
		copy(batch.Row(0), queries.Row(1))
		copy(batch.Row(1), bad)

		calls := map[string]func() error{
			"Search":          func() error { _, err := idx.Search(ctx, bad, 5); return err },
			"Search nprobe=4": func() error { _, err := idx.Search(ctx, bad, 5, pqfastscan.WithNProbe(4)); return err },
			"Search naive kernel": func() error {
				_, err := idx.Search(ctx, bad, 5, pqfastscan.WithKernel(pqfastscan.KernelNaive))
				return err
			},
			"SearchBatch": func() error { _, err := idx.SearchBatch(ctx, batch, 5); return err },
			"Add":         func() error { _, err := idx.Add(bad); return err },
			"AddBatch":    func() error { _, err := idx.AddBatch(batch); return err },
		}
		for name, call := range calls {
			err := call()
			if err == nil {
				t.Errorf("%s accepted a vector with component %v", name, x)
			} else if !strings.Contains(err.Error(), "squared norm") {
				t.Errorf("%s with component %v: error %q does not say what is wrong", name, x, err)
			}
		}
	}
	if got := idx.Live(); got != live {
		t.Fatalf("live %d, was %d: a rejected Add indexed something", got, live)
	}

	// The largest norm that is still finite is served.
	big := make([]float32, len(queries.Row(0)))
	for i := range big {
		big[i] = 1e18
	}
	if _, err := idx.Search(ctx, big, 5, pqfastscan.WithNProbe(4)); err != nil {
		t.Fatalf("query with finite squared norm 1.28e38 rejected: %v", err)
	}
}

func TestSearchHonorsContext(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.Search(ctx, queries.Row(0), 10); err != context.Canceled {
		t.Fatalf("canceled single search returned %v", err)
	}
	if _, err := idx.Search(ctx, queries.Row(0), 10, pqfastscan.WithNProbe(4)); err != context.Canceled {
		t.Fatalf("canceled multi-probe search returned %v", err)
	}
	if _, err := idx.SearchBatch(ctx, queries, 10); err != context.Canceled {
		t.Fatalf("canceled batch search returned %v", err)
	}
}

// TestBuildRefusesUnscannableOptions: a keep fraction outside [0,1) or
// more than 4 grouping components leaves no Fast Scan layout to build,
// so Build refuses it, naming the option — it used to succeed, and then
// every Fast Scan query failed and Save wrote a file LoadIndex refused.
func TestBuildRefusesUnscannableOptions(t *testing.T) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 3, Dim: 16})
	learn, base := gen.Generate(300), gen.Generate(300)
	for _, c := range []struct {
		name string
		set  func(*pqfastscan.BuildOptions)
		says string
	}{
		{"keep 1.5", func(o *pqfastscan.BuildOptions) { o.Keep = 1.5 }, "keep"},
		{"keep -0.2", func(o *pqfastscan.BuildOptions) { o.Keep = -0.2 }, "keep"},
		{"c = 5", func(o *pqfastscan.BuildOptions) { o.GroupComponents = 5 }, "group components"},
	} {
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = 2
		c.set(&opt)
		if _, err := pqfastscan.Build(learn, base, opt); err == nil || !strings.Contains(err.Error(), c.says) {
			t.Errorf("%s: Build returned %v, want an error naming %q", c.name, err, c.says)
		}
	}
}

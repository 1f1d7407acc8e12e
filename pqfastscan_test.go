package pqfastscan_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pqfastscan"
)

var (
	apiOnce    sync.Once
	apiIndex   *pqfastscan.Index
	apiBase    pqfastscan.Matrix
	apiQueries pqfastscan.Matrix
	apiErr     error
)

func sharedAPIIndex(t *testing.T) (*pqfastscan.Index, pqfastscan.Matrix, pqfastscan.Matrix) {
	t.Helper()
	apiOnce.Do(func() {
		gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 77})
		learn := gen.Generate(4000)
		apiBase = gen.Generate(25000)
		apiQueries = gen.Generate(6)
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = 4
		apiIndex, apiErr = pqfastscan.Build(learn, apiBase, opt)
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiIndex, apiBase, apiQueries
}

func TestBuildAndSearch(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	res, err := idx.Search(context.Background(), queries.Row(0), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 10 {
		t.Fatalf("got %d results", len(res.Results))
	}
	for i := 1; i < len(res.Results); i++ {
		if res.Results[i].Distance < res.Results[i-1].Distance {
			t.Fatal("results not sorted by distance")
		}
	}
	if len(res.Partitions) != 1 {
		t.Fatalf("single-probe search probed partitions %v", res.Partitions)
	}
	if res.Stats != nil {
		t.Fatal("stats attached without WithStats")
	}
}

func TestSearchRejectsBadK(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	if _, err := idx.Search(context.Background(), queries.Row(0), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// scanPaths lists every scan a search can be answered with: naive,
// libpq, and fastpq on every available backend — the kernel × backend
// axis of the facade's bit-identity matrices. A path pins the process
// to its backend (backendPin) and returns the options of its kernel;
// the selection is restored when t ends.
func scanPaths(t *testing.T) map[string]func() []pqfastscan.SearchOption {
	pin, active := backendPin(t), pqfastscan.ActiveBackend()
	on := func(k pqfastscan.Kernel, be pqfastscan.Backend) func() []pqfastscan.SearchOption {
		return func() []pqfastscan.SearchOption {
			pin(be)
			return []pqfastscan.SearchOption{pqfastscan.WithKernel(k)}
		}
	}
	paths := map[string]func() []pqfastscan.SearchOption{
		"naive": on(pqfastscan.KernelNaive, active),
		"libpq": on(pqfastscan.KernelLibpq, active),
	}
	for _, be := range pqfastscan.AvailableBackends() {
		paths["fastpq/"+be.String()] = on(pqfastscan.KernelFastScan, be)
	}
	return paths
}

// TestKernelEquivalencePublicAPI: the exactness claim through the public
// surface — every scan path returns the naive oracle's neighbor lists,
// single- and multi-probe.
func TestKernelEquivalencePublicAPI(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	paths := scanPaths(t)
	for _, nprobe := range []int{1, 3} {
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			ref, err := idx.Search(ctx, q, 30, pqfastscan.WithKernel(pqfastscan.KernelNaive), pqfastscan.WithNProbe(nprobe))
			if err != nil {
				t.Fatal(err)
			}
			for name, path := range paths {
				opts := append([]pqfastscan.SearchOption{pqfastscan.WithNProbe(nprobe)}, path()...)
				got, err := idx.Search(ctx, q, 30, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameResultSlices(t, name, ref.Results, got.Results)
			}
		}
	}
}

func TestSearchWithStatsPruning(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	res, err := idx.Search(context.Background(), queries.Row(0), 100, pqfastscan.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	stats, part := res.Stats, res.Partitions[0]
	if part < 0 || part >= len(idx.PartitionSizes()) {
		t.Fatalf("partition %d out of range", part)
	}
	if stats.LowerBounds == 0 {
		t.Fatal("no lower bounds computed")
	}
	if stats.Pruned+stats.Candidates != stats.LowerBounds {
		t.Fatal("stats accounting mismatch")
	}
}

// TestSearchMultiImprovesDistances: probing more cells can only improve
// (or tie) the ADC distance at every rank. (Recall@R against exact ground
// truth is NOT monotone in nprobe — approximate distances from extra
// cells can displace the true neighbor — so the distance property is the
// correct invariant to test.)
func TestSearchMultiImprovesDistances(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	for qi := 0; qi < queries.Rows(); qi++ {
		one, err := idx.Search(context.Background(), queries.Row(qi), 50, pqfastscan.WithNProbe(1))
		if err != nil {
			t.Fatal(err)
		}
		four, err := idx.Search(context.Background(), queries.Row(qi), 50, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		single, multi := one.Results, four.Results
		for i := range single {
			if multi[i].Distance > single[i].Distance {
				t.Fatalf("query %d rank %d worsened: %v > %v",
					qi, i, multi[i].Distance, single[i].Distance)
			}
		}
	}
}

func TestPartitionSizesSum(t *testing.T) {
	idx, base, _ := sharedAPIIndex(t)
	total := 0
	for _, s := range idx.PartitionSizes() {
		total += s
	}
	if total != base.Rows() {
		t.Fatalf("partitions sum to %d, want %d", total, base.Rows())
	}
}

func TestDefaultsApplied(t *testing.T) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 3, Dim: 32})
	learn := gen.Generate(1500)
	base := gen.Generate(3000)
	// Zero-valued options must be filled with the paper defaults.
	idx, err := pqfastscan.Build(learn, base, pqfastscan.BuildOptions{GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(idx.PartitionSizes()); got != 8 {
		t.Fatalf("default partitions = %d, want 8", got)
	}
}

// Example demonstrates the minimal end-to-end flow.
func Example() {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 1})
	learn := gen.Generate(2000)
	base := gen.Generate(5000)
	query := gen.Generate(1).Row(0)

	idx, err := pqfastscan.Build(learn, base, pqfastscan.DefaultBuildOptions())
	if err != nil {
		panic(err)
	}
	res, err := idx.Search(context.Background(), query, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Results), "neighbors found")
	// Output: 3 neighbors found
}

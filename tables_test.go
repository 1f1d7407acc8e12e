package pqfastscan_test

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"pqfastscan"
	"pqfastscan/internal/index"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/topk"
)

func buildTablesFixture(t *testing.T, seed uint64) (*pqfastscan.Index, pqfastscan.Matrix, *pqfastscan.Dataset) {
	t.Helper()
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: seed})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	idx, err := pqfastscan.Build(gen.Generate(3000), gen.Generate(12000), opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx, gen.Generate(8), gen
}

// composedAnswer answers q over cells the way the standing benchmark's
// stage-by-stage run does: each layer's public function called from
// outside — Index.Tables, FastScanner, ScanNativeBackend from an empty
// heap — and the per-cell lists merged.
func composedAnswer(t *testing.T, in *index.Index, q []float32, cells []int, k int) []pqfastscan.Result {
	t.Helper()
	sc := scan.NewScratch()
	heap := topk.New(k)
	for _, cell := range cells {
		fs, err := in.FastScanner(cell)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := fs.ScanNativeBackend(in.Tables(q, cell), k, sc, index.BackendAuto)
		for _, r := range res {
			heap.Push(r.ID, r.Distance)
		}
	}
	return heap.Results()
}

// TestComposedStagesEqualFacade pins in tier-1 what the frozen
// benchmark/ gates every run on and tier-1 only vets: the stages called
// one by one from outside return the facade's answer, ids and
// distances. The facade builds its tables through one reused scratch
// and carries one heap across cells; the composition builds every table
// cold and scans every cell from empty. Equal answers mean the two ways
// of producing a table are the same function.
func TestComposedStagesEqualFacade(t *testing.T) {
	idx, queries, gen := buildTablesFixture(t, 411)
	ctx := context.Background()
	const k = 10

	check := func(state string) {
		in := idx.Internal()
		np := idx.Partitions()
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			ranked := in.RankCellsInto(q, nil, nil)
			for _, nprobe := range []int{1, 2, np} {
				want := composedAnswer(t, in, q, ranked[:nprobe], k)
				unranked := slices.Clone(ranked[:nprobe])
				slices.Reverse(unranked)
				for name, opts := range map[string][]pqfastscan.SearchOption{
					"sequential": {pqfastscan.WithNProbe(nprobe)},
					"cells":      {pqfastscan.WithCells(unranked...)},
				} {
					got, err := idx.Search(ctx, q, k, opts...)
					if err != nil {
						t.Fatalf("%s, query %d, nprobe %d, %s: %v", state, qi, nprobe, name, err)
					}
					sameResultSlices(t, state+" "+name, got.Results, want)
				}
			}
		}
	}

	check("clean")

	added, err := idx.AddBatch(gen.Generate(60))
	if err != nil {
		t.Fatal(err)
	}
	check("after Add")

	// Tombstone what the queries currently find, plus some of the adds.
	for qi := 0; qi < queries.Rows(); qi++ {
		res, err := idx.Search(ctx, queries.Row(qi), 3, pqfastscan.WithNProbe(idx.Partitions()))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Results {
			if err := idx.Delete(r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range added[:20] {
		// Already gone if a query found it above.
		_ = idx.Delete(id)
	}
	check("tombstoned")
}

// TestShardAndRestoredTablesBitIdentical: the per-cell table term is
// derived state, rebuilt whenever an index is assembled — by Build, by
// loading a file, by restricting to a shard's cells — and follows the
// global cell numbering. Every such index must hand out, bit for bit,
// the full index's Tables for every cell.
func TestShardAndRestoredTablesBitIdentical(t *testing.T) {
	idx, queries, _ := buildTablesFixture(t, 412)
	path := filepath.Join(t.TempDir(), "idx.pqfsidx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := pqfastscan.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	loadedShard, err := pqfastscan.LoadIndexCells(path, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := idx.RestrictCells(2, 3)
	if err != nil {
		t.Fatal(err)
	}

	full := idx.Internal()
	for name, other := range map[string]*pqfastscan.Index{
		"LoadIndex": restored, "LoadIndexCells{3,1}": loadedShard, "RestrictCells{2,3}": shard,
	} {
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			for cell := 0; cell < idx.Partitions(); cell++ {
				want := full.Tables(q, cell)
				got := other.Internal().Tables(q, cell)
				for i, w := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
						t.Fatalf("%s: query %d cell %d entry %d is %v, the full index has %v", name, qi, cell, i, got.Data[i], w)
					}
				}
			}
		}
	}
}

// TestSearchAllocBudget keeps table allocations off the scan path. A
// query takes its scan buffers, top-k heap, query term and table
// storage from the pool once, so probing more cells allocates nothing
// more: what a multi-probe Search allocates beyond a single-probe one is
// the cell ranking's two slices, whatever nprobe is. With a residual and
// an 8 KiB table allocated per probed cell this was 8 / 12 / 16
// allocations at nprobe 1 / 2 / 4, and 6 / 8 / 8 while every query
// allocated its heap's array; it is 5 / 7 / 7.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; the pooled scratch is reallocated")
	}
	idx, _, queries := sharedAPIIndex(t)
	if _, paged := idx.StoreStats(); paged {
		t.Skip("a disk-resident probe allocates its pinned views; the budget is the RAM path's")
	}
	ctx := context.Background()
	q := queries.Row(0)
	allocs := func(nprobe int) float64 {
		opt := pqfastscan.WithNProbe(nprobe) // built once, as a serving caller would
		return testing.AllocsPerRun(100, func() {
			if _, err := idx.Search(ctx, q, 10, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2, a4 := allocs(1), allocs(2), allocs(4)
	t.Logf("allocations per Search(k=10): nprobe 1: %v, 2: %v, 4: %v", a1, a2, a4)
	if a4 > a2 {
		t.Errorf("nprobe=4 allocates %v, nprobe=2 %v: something is allocated per probed cell", a4, a2)
	}
	if a4 > a1+2 {
		t.Errorf("nprobe=4 allocates %v, more than nprobe=1 (%v) plus the ranking's two slices", a4, a1)
	}
	if a4 > 7 {
		t.Errorf("nprobe=4 allocates %v per Search, budget 7", a4)
	}
}

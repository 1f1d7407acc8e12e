package pqfastscan_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"pqfastscan"
)

// mutateFixture builds an index, force-builds its Fast Scan layouts (so
// Add exercises the incremental group repack rather than lazy rebuild),
// applies a batch of Adds and Deletes, and constructs the reference
// index built from scratch over the exact resulting vector set.
type mutateFixture struct {
	mutated  *pqfastscan.Index
	rebuilt  *pqfastscan.Index
	queries  pqfastscan.Matrix
	idmap    []int64 // rebuilt id (row) -> id in the mutated index
	liveWant int
}

func newMutateFixture(t *testing.T) *mutateFixture {
	t.Helper()
	ctx := context.Background()
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 4242, Dim: 64})
	learn := gen.Generate(3000)
	base := gen.Generate(15000)
	extra := gen.Generate(2000)
	queries := gen.Generate(6)

	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	opt.Seed = 9

	mutated, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Build every partition's Fast Scan layout before mutating.
	if _, err := mutated.Search(ctx, queries.Row(0), 5, pqfastscan.WithNProbe(opt.Partitions)); err != nil {
		t.Fatal(err)
	}

	ids, err := mutated.AddBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != extra.Rows() {
		t.Fatalf("AddBatch assigned %d ids for %d vectors", len(ids), extra.Rows())
	}
	for i, id := range ids {
		if want := int64(base.Rows() + i); id != want {
			t.Fatalf("appended id %d = %d, want %d", i, id, want)
		}
	}

	// Delete a spread of build-time and appended vectors.
	deleted := map[int64]bool{}
	for id := int64(0); id < int64(base.Rows()); id += 7 {
		deleted[id] = true
	}
	for i := 0; i < len(ids); i += 5 {
		deleted[ids[i]] = true
	}
	for id := range deleted {
		if err := mutated.Delete(id); err != nil {
			t.Fatalf("delete of id %d: %v", id, err)
		}
	}
	if err := mutated.Delete(ids[0]); !errors.Is(err, pqfastscan.ErrNotFound) {
		t.Fatalf("double delete returned %v, want ErrNotFound", err)
	}
	if err := mutated.Delete(int64(base.Rows() + extra.Rows())); !errors.Is(err, pqfastscan.ErrNotFound) {
		t.Fatalf("delete of never-assigned id returned %v, want ErrNotFound", err)
	}

	// The reference: a from-scratch build over the surviving vectors, in
	// id order so that rebuilt row r corresponds to survivors[r]. The
	// order-preserving id map keeps distance-tie ordering comparable.
	total := base.Rows() + extra.Rows()
	row := func(id int64) []float32 {
		if int(id) < base.Rows() {
			return base.Row(int(id))
		}
		return extra.Row(int(id) - base.Rows())
	}
	var survivors []int64
	for id := int64(0); id < int64(total); id++ {
		if !deleted[id] {
			survivors = append(survivors, id)
		}
	}
	fresh := pqfastscan.NewMatrix(len(survivors), 64)
	for r, id := range survivors {
		copy(fresh.Row(r), row(id))
	}
	rebuilt, err := pqfastscan.Build(learn, fresh, opt)
	if err != nil {
		t.Fatal(err)
	}
	return &mutateFixture{
		mutated:  mutated,
		rebuilt:  rebuilt,
		queries:  queries,
		idmap:    survivors,
		liveWant: len(survivors),
	}
}

// TestMutatedIndexMatchesRebuild: an index that received Add and Delete
// after construction returns the same top-k as an index rebuilt from
// scratch over the resulting vector set, for every kernel. The trained
// quantizers are shared (learn set and seed are equal), so codes and
// distances match exactly and the comparison is rank-for-rank.
func TestMutatedIndexMatchesRebuild(t *testing.T) {
	fx := newMutateFixture(t)
	ctx := context.Background()

	if got := fx.mutated.Live(); got != fx.liveWant {
		t.Fatalf("Live() = %d, want %d", got, fx.liveWant)
	}

	for _, kern := range allKernels() {
		for qi := 0; qi < fx.queries.Rows(); qi++ {
			q := fx.queries.Row(qi)
			got, err := fx.mutated.Search(ctx, q, 30, pqfastscan.WithKernel(kern))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fx.rebuilt.Search(ctx, q, 30, pqfastscan.WithKernel(kern))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("kernel %v query %d: %d results vs %d on rebuild",
					kern, qi, len(got.Results), len(want.Results))
			}
			for i := range want.Results {
				w, g := want.Results[i], got.Results[i]
				if g.Distance != w.Distance || g.ID != fx.idmap[w.ID] {
					t.Fatalf("kernel %v query %d rank %d: got (id=%d d=%v), rebuild maps to (id=%d d=%v)",
						kern, qi, i, g.ID, g.Distance, fx.idmap[w.ID], w.Distance)
				}
			}
		}
	}
}

// TestMutatedIndexMultiProbeAndBatch: the mutation-aware scan also holds
// through multi-probe merging and the concurrent batch path.
func TestMutatedIndexMultiProbeAndBatch(t *testing.T) {
	fx := newMutateFixture(t)
	ctx := context.Background()

	for qi := 0; qi < fx.queries.Rows(); qi++ {
		q := fx.queries.Row(qi)
		got, err := fx.mutated.Search(ctx, q, 20, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fx.rebuilt.Search(ctx, q, 20, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Results {
			if got.Results[i].Distance != want.Results[i].Distance ||
				got.Results[i].ID != fx.idmap[want.Results[i].ID] {
				t.Fatalf("nprobe=4 query %d rank %d differs from rebuild", qi, i)
			}
		}
	}

	gotBatch, err := fx.mutated.SearchBatch(ctx, fx.queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := fx.rebuilt.SearchBatch(ctx, fx.queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range wantBatch {
		for i := range wantBatch[qi].Results {
			if gotBatch[qi].Results[i].Distance != wantBatch[qi].Results[i].Distance {
				t.Fatalf("batch query %d rank %d differs from rebuild", qi, i)
			}
		}
	}
}

// TestMutationInterleavedEnginesAgree drives the index through rounds of
// interleaved Add/Delete/Search and, inside every round, checks every
// scan path (naive, libpq, fastpq on each backend) answers the naive
// oracle's results bit for bit — the exactness invariant under online
// mutation, where the sealed base, its append tail and the dead bits
// are the state every backend scans.
func TestMutationInterleavedEnginesAgree(t *testing.T) {
	ctx := context.Background()
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 777, Dim: 48})
	learn := gen.Generate(2500)
	base := gen.Generate(9000)
	queries := gen.Generate(4)

	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 3
	opt.Seed = 5
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Force every partition's Fast Scan layout so Adds repack
	// incrementally from round one.
	if _, err := idx.Search(ctx, queries.Row(0), 5, pqfastscan.WithNProbe(opt.Partitions)); err != nil {
		t.Fatal(err)
	}

	checkEnginesAgree := func(round int) {
		t.Helper()
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			oracle, err := idx.Search(ctx, q, 20,
				pqfastscan.WithKernel(pqfastscan.KernelNaive), pqfastscan.WithNProbe(opt.Partitions))
			if err != nil {
				t.Fatal(err)
			}
			for name, path := range scanPaths() {
				got, err := idx.Search(ctx, q, 20, append(path, pqfastscan.WithNProbe(opt.Partitions))...)
				if err != nil {
					t.Fatal(err)
				}
				sameResultSlices(t, fmt.Sprintf("round %d %s query %d", round, name, qi), oracle.Results, got.Results)
			}
		}
	}

	nextDelete := int64(0)
	total := int64(base.Rows())
	for round := 0; round < 5; round++ {
		// Add a batch, delete a stride (including some just-added ids),
		// search between every step.
		added, err := idx.AddBatch(gen.Generate(300))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(added))
		checkEnginesAgree(round)
		for ; nextDelete < total; nextDelete += 17 {
			if err := idx.Delete(nextDelete); err != nil {
				t.Fatal(err)
			}
		}
		checkEnginesAgree(round)
		if _, err := idx.Add(gen.Generate(1).Row(0)); err != nil {
			t.Fatal(err)
		}
		total++
		checkEnginesAgree(round)
	}
}

// TestDeletedNeverReturned: no tombstoned id may appear in any kernel's
// results, and deleted best matches actually disappear.
func TestDeletedNeverReturned(t *testing.T) {
	ctx := context.Background()
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 31, Dim: 32})
	learn := gen.Generate(2000)
	base := gen.Generate(8000)
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 2
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Generate(1).Row(0)

	before, err := idx.Search(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	removed := map[int64]bool{}
	for _, r := range before.Results[:5] {
		if err := idx.Delete(r.ID); err != nil {
			t.Fatalf("delete of returned id %d: %v", r.ID, err)
		}
		removed[r.ID] = true
	}
	for _, kern := range allKernels() {
		res, err := idx.Search(ctx, q, 10, pqfastscan.WithKernel(kern))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Results {
			if removed[r.ID] {
				t.Fatalf("kernel %v returned deleted id %d", kern, r.ID)
			}
		}
	}
}

// TestAddAfterLoadContinuesIDs: the persisted id allocator prevents id
// reuse across a save/load cycle.
func TestAddAfterLoadContinuesIDs(t *testing.T) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 8, Dim: 32})
	learn := gen.Generate(1500)
	base := gen.Generate(4000)
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 2
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := idx.Add(gen.Generate(1).Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if first != int64(base.Rows()) {
		t.Fatalf("first added id = %d, want %d", first, base.Rows())
	}

	path := t.TempDir() + "/mutated.pqfsidx"
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pqfastscan.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	next, err := loaded.Add(gen.Generate(1).Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if next != first+1 {
		t.Fatalf("id after reload = %d, want %d", next, first+1)
	}
}

// TestAddBatchAssignsSortedIDs documents the allocator's monotonicity.
func TestAddBatchAssignsSortedIDs(t *testing.T) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 12, Dim: 32})
	idx, err := pqfastscan.Build(gen.Generate(1500), gen.Generate(3000), pqfastscan.BuildOptions{Partitions: 2, GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := idx.AddBatch(gen.Generate(50))
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
		t.Fatalf("AddBatch ids not monotonically increasing: %v", ids)
	}
}

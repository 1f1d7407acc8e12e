package pqfastscan_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pqfastscan"
)

func buildDiskTestIndex(t *testing.T, seed uint64) (*pqfastscan.Index, pqfastscan.Matrix) {
	t.Helper()
	// Under the paged-smoke CI leg every facade-built index is already
	// auto-attached to $PQ_STORE_DIR, so these explicit-attach tests
	// would (correctly) be refused their own directory.
	if os.Getenv("PQ_STORE_DIR") != "" {
		t.Skip("PQ_STORE_DIR set: indexes auto-attach at build; explicit WithDiskStore not applicable")
	}
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: seed})
	learn := gen.Generate(2000)
	base := gen.Generate(8000)
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx, gen.Generate(5)
}

// TestWithDiskStoreEndToEnd: attaching a disk store changes nothing
// observable — every kernel answers bit-identically before and after,
// mutations keep working, Save produces a loadable snapshot, and the
// store reports sensible counters.
func TestWithDiskStoreEndToEnd(t *testing.T) {
	idx, queries := buildDiskTestIndex(t, 4242)
	ctx := context.Background()

	type answer struct {
		ids  []int64
		dist []float32
	}
	ask := func(k pqfastscan.Kernel, qi int) answer {
		res, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithKernel(k), pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatalf("kernel %v: %v", k, err)
		}
		var a answer
		for _, r := range res.Results {
			a.ids = append(a.ids, r.ID)
			a.dist = append(a.dist, r.Distance)
		}
		return a
	}

	before := map[pqfastscan.Kernel][]answer{}
	for _, k := range pqfastscan.Kernels() {
		for qi := 0; qi < queries.Rows(); qi++ {
			before[k] = append(before[k], ask(k, qi))
		}
	}

	if _, ok := idx.StoreStats(); ok {
		t.Fatal("StoreStats ok before any attach")
	}
	dir := t.TempDir()
	// An orphan from a "previous owner" must be swept at attach.
	orphan := filepath.Join(dir, ".pqfsext-leftover")
	if err := os.WriteFile(orphan, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := idx.WithDiskStore(dir, 8<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp file survived attach: %v", err)
	}
	// Idempotent re-attach; different dir refused.
	if err := idx.WithDiskStore(dir, 8<<20); err != nil {
		t.Fatalf("re-attach to same dir: %v", err)
	}
	if err := idx.WithDiskStore(t.TempDir(), 8<<20); err == nil {
		t.Fatal("attach to a second dir accepted")
	}

	for _, k := range pqfastscan.Kernels() {
		for qi := 0; qi < queries.Rows(); qi++ {
			got := ask(k, qi)
			want := before[k][qi]
			for i := range want.ids {
				if got.ids[i] != want.ids[i] || got.dist[i] != want.dist[i] {
					t.Fatalf("kernel %v q%d result %d: (%d,%g), want (%d,%g)",
						k, qi, i, got.ids[i], got.dist[i], want.ids[i], want.dist[i])
				}
			}
		}
	}

	st, ok := idx.StoreStats()
	if !ok {
		t.Fatal("StoreStats not ok after attach")
	}
	if st.ExtentBytes <= 0 || st.Dir != dir {
		t.Fatalf("store stats %+v: want positive extent bytes under %s", st, dir)
	}
	if st.Pool.ResidentBytes > st.Pool.CapacityBytes+st.Pool.PinnedBytes {
		t.Fatalf("pool invariant violated: %+v", st.Pool)
	}

	// Mutations on the paged index, then a Save/Load round trip: the
	// loaded (RAM) index must answer like the paged one.
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 4343})
	ids, err := idx.AddBatch(gen.Generate(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pqfastscan.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.Rows(); qi++ {
		a, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Results {
			if a.Results[i] != b.Results[i] {
				t.Fatalf("q%d result %d: paged %+v, loaded %+v", qi, i, a.Results[i], b.Results[i])
			}
		}
	}
}

// TestDiskStoreBoundedResidency: with the pool capped at under a tenth
// of the extent footprint the whole dataset stays queryable and the
// pool never holds more than capacity + pinned.
func TestDiskStoreBoundedResidency(t *testing.T) {
	idx, queries := buildDiskTestIndex(t, 5151)
	// An extent spends more than 20 bytes on a vector (8 of codes, 8 of
	// id, the packed copy), so one byte each is under a tenth of them.
	if err := idx.WithDiskStore(t.TempDir(), int64(idx.Live())); err != nil {
		t.Fatal(err)
	}
	if st, _ := idx.StoreStats(); st.Pool.CapacityBytes*10 > st.ExtentBytes {
		t.Fatalf("fixture: pool of %d bytes is not under a tenth of %d extent bytes", st.Pool.CapacityBytes, st.ExtentBytes)
	}

	ctx := context.Background()
	for pass := 0; pass < 3; pass++ {
		for qi := 0; qi < queries.Rows(); qi++ {
			if _, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(idx.Partitions())); err != nil {
				t.Fatal(err)
			}
			st, _ := idx.StoreStats()
			if st.Pool.ResidentBytes > st.Pool.CapacityBytes+st.Pool.PinnedBytes {
				t.Fatalf("resident %d > capacity %d + pinned %d", st.Pool.ResidentBytes, st.Pool.CapacityBytes, st.Pool.PinnedBytes)
			}
		}
	}
	st, _ := idx.StoreStats()
	if st.Pool.Evictions == 0 {
		t.Fatalf("full sweeps at under 10%% capacity never evicted: %+v", st.Pool)
	}
}

// TestDiskStoreExtentBytesPerRow: an extent stores each row once — a
// 4-byte id offset (the id base and any spilled id stay on the stub),
// and its code once: 8 row-major bytes in the keep region, 6 to 8
// packed in a block everywhere else (about 8 on this fixture's shallow
// grouping, where a group's last block is padded) — plus at most one
// cache line of padding per section (codes, ids, blocks). An int64 id
// would add 4 a row, a row-major copy of the grouped rows' codes 8.
func TestDiskStoreExtentBytesPerRow(t *testing.T) {
	idx, _ := buildDiskTestIndex(t, 7171)
	if err := idx.WithDiskStore(t.TempDir(), 8<<20); err != nil {
		t.Fatal(err)
	}
	st, _ := idx.StoreStats()
	rows := int64(idx.Live())
	headers := int64(3*64) * int64(idx.Partitions())
	if st.ExtentBytes > 12*rows+headers {
		t.Fatalf("extents hold %d bytes for %d rows (%.1f a row), want at most 12 a row plus %d of section padding",
			st.ExtentBytes, rows, float64(st.ExtentBytes)/float64(rows), headers)
	}
}

// TestDiskStoreWithWAL: durability and paging compose — a paged index
// checkpoints through pinned captures and recovers to the same state.
func TestDiskStoreWithWAL(t *testing.T) {
	idx, queries := buildDiskTestIndex(t, 6161)
	if err := idx.WithDiskStore(t.TempDir(), 8<<20); err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	if err := idx.WithWAL(walDir); err != nil {
		t.Fatal(err)
	}
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 6262})
	ids, err := idx.AddBatch(gen.Generate(60))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := idx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := idx.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, err := pqfastscan.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Live() != idx.Live() {
		t.Fatalf("recovered live %d, want %d", rec.Live(), idx.Live())
	}
	ctx := context.Background()
	for qi := 0; qi < queries.Rows(); qi++ {
		a, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		b, err := rec.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Results {
			if a.Results[i] != b.Results[i] {
				t.Fatalf("q%d result %d: paged %+v, recovered %+v", qi, i, a.Results[i], b.Results[i])
			}
		}
	}
}

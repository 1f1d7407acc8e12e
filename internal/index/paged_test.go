package index

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pqfastscan/internal/bufpool"
	"pqfastscan/internal/dataset"
	"pqfastscan/internal/vec"
)

// buildTwin builds two independent but identical indexes from the same
// deterministic generator configuration: one stays RAM-resident (the
// oracle), the other is attached to a disk store by the caller.
func buildTwin(t *testing.T, seed uint64, nBase int) (ram, paged *Index, queries vec.Matrix) {
	t.Helper()
	mk := func() (*Index, vec.Matrix) {
		gen := dataset.NewGenerator(dataset.Config{Seed: seed, Dim: 32})
		learn := gen.Generate(2000)
		base := gen.Generate(nBase)
		opt := DefaultOptions()
		opt.Partitions = 4
		opt.Seed = seed
		opt.FastScan.OrderGroups = true
		ix, err := Build(learn, base, opt)
		if err != nil {
			t.Fatal(err)
		}
		return ix, gen.Generate(8)
	}
	ram, queries = mk()
	paged, _ = mk()
	return ram, paged, queries
}

// assertIdentical queries both indexes with every scan path (naive,
// libpq, fastpq on every available backend) and requires byte-for-byte
// equal ids, distances and scan stats.
func assertIdentical(t *testing.T, ram, paged *Index, queries vec.Matrix, tag string) {
	t.Helper()
	ctx := context.Background()
	for _, req := range scanPaths() {
		for qi := 0; qi < queries.Rows(); qi++ {
			req.Query, req.K, req.NProbe = queries.Row(qi), 10, ram.Partitions()
			want, err := ram.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: ram query (%v/%v): %v", tag, req.Kernel, req.Backend, err)
			}
			got, err := paged.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: paged query (%v/%v): %v", tag, req.Kernel, req.Backend, err)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("%s: %v/%v q%d: %d results, want %d", tag, req.Kernel, req.Backend, qi, len(got.Results), len(want.Results))
			}
			for i := range want.Results {
				if got.Results[i] != want.Results[i] {
					t.Fatalf("%s: %v/%v q%d result %d: %+v, want %+v", tag, req.Kernel, req.Backend, qi, i, got.Results[i], want.Results[i])
				}
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s: %v/%v q%d stats %+v, want %+v", tag, req.Kernel, req.Backend, qi, got.Stats, want.Stats)
			}
		}
	}
}

// TestPagedBitIdenticalToRAM is the tentpole acceptance test: a paged
// index answers every kernel, backend and mutation state bit-identically
// to its RAM-resident twin — through tombstones, appends, compaction
// and a second attach-free index sharing the store dir.
func TestPagedBitIdenticalToRAM(t *testing.T) {
	ram, paged, queries := buildTwin(t, 808, 8000)
	if err := paged.AttachStore(t.TempDir(), 1<<30); err != nil {
		t.Fatal(err)
	}
	if !paged.Paged() || ram.Paged() {
		t.Fatal("Paged() flags wrong way around")
	}
	assertIdentical(t, ram, paged, queries, "fresh")

	// Identical mutations on both: same vectors produce the same ids
	// (same allocator position), so tombstones and appends line up.
	gen := dataset.NewGenerator(dataset.Config{Seed: 909, Dim: 32})
	batch := gen.Generate(300)
	idsRAM, err := ram.Add(batch)
	if err != nil {
		t.Fatal(err)
	}
	idsPaged, err := paged.Add(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(idsRAM) != len(idsPaged) || idsRAM[0] != idsPaged[0] {
		t.Fatalf("twin id allocation diverged: %v vs %v", idsRAM[:1], idsPaged[:1])
	}
	assertIdentical(t, ram, paged, queries, "after add")

	for i := 0; i < len(idsRAM); i += 3 {
		if err := ram.Delete(idsRAM[i]); err != nil {
			t.Fatal(err)
		}
		if err := paged.Delete(idsPaged[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Also tombstone build-time rows, exercising the paged locate build.
	for id := int64(0); id < 40; id += 7 {
		if err := ram.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := paged.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	assertIdentical(t, ram, paged, queries, "after delete")

	if _, err := ram.Compact(0); err != nil {
		t.Fatal(err)
	}
	if _, err := paged.Compact(0); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ram, paged, queries, "after compact")

	// Offline bridges: Parts materializes, GroupedMemoryBytes pins.
	rp, pp := ram.Parts(), paged.Parts()
	for c := range rp {
		if rp[c].N != pp[c].N || rp[c].Live() != pp[c].Live() {
			t.Fatalf("partition %d diverged: N %d/%d live %d/%d", c, rp[c].N, pp[c].N, rp[c].Live(), pp[c].Live())
		}
	}
	rpk, rrm, err := ram.GroupedMemoryBytes()
	if err != nil {
		t.Fatal(err)
	}
	ppk, prm, err := paged.GroupedMemoryBytes()
	if err != nil {
		t.Fatal(err)
	}
	if rpk != ppk || rrm != prm {
		t.Fatalf("grouped footprint diverged: packed %d/%d rowMajor %d/%d", rpk, ppk, rrm, prm)
	}
}

// TestPagedRestrictCellsSharesExtents: a restricted index over a paged
// snapshot shares extents with its parent (no copies, no second
// attach) and answers its cells bit-identically to a restricted RAM
// twin.
func TestPagedRestrictCellsSharesExtents(t *testing.T) {
	ram, paged, queries := buildTwin(t, 777, 6000)
	if err := paged.AttachStore(t.TempDir(), 1<<30); err != nil {
		t.Fatal(err)
	}
	cells := []int{0, 2}
	ramR, err := ram.RestrictCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	pagedR, err := paged.RestrictCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !pagedR.Paged() {
		t.Fatal("restricted index lost its store attachment")
	}
	assertIdentical(t, ramR, pagedR, queries, "restricted")
}

// TestPagedEvictionCorrectness is the eviction-correctness storm: the
// pool is capped at under 10% of the extent footprint, every evicted frame
// is poisoned (overwritten), and a concurrent uniform query storm must
// still answer bit-identically to the RAM oracle — proving no scan
// path ever touches an evicted or unpinned frame. Run under -race in
// CI. It also asserts the pool invariant resident <= capacity + pinned
// at every sample.
func TestPagedEvictionCorrectness(t *testing.T) {
	ram, paged, queries := buildTwin(t, 606, 12000)

	var poisonMu sync.Mutex
	poisoned := 0
	poison := func(id string, buf []byte) {
		for i := range buf {
			buf[i] = 0xDB
		}
		poisonMu.Lock()
		poisoned++
		poisonMu.Unlock()
	}
	// An extent spends more than 20 bytes on a vector (8 of codes, 8 of
	// id, the packed copy), so one byte each is under a tenth of them.
	if err := paged.attachStore(t.TempDir(), int64(paged.Live()), bufpool.WithEvictHook(poison)); err != nil {
		t.Fatal(err)
	}
	st, ok := paged.StoreStats()
	if !ok {
		t.Fatal("no store stats on a paged index")
	}
	if st.Pool.CapacityBytes*10 > st.ExtentBytes {
		t.Fatalf("fixture: pool of %d bytes is not under a tenth of %d extent bytes", st.Pool.CapacityBytes, st.ExtentBytes)
	}

	// Precompute oracle answers once (the RAM index is immutable here).
	ctx := context.Background()
	type key struct{ qi, path int }
	paths := scanPaths()
	oracle := make(map[key]*Response)
	for qi := 0; qi < queries.Rows(); qi++ {
		for pi, req := range paths {
			req.Query, req.K, req.NProbe = queries.Row(qi), 10, ram.Partitions()
			resp, err := ram.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			oracle[key{qi, pi}] = resp
		}
	}

	const workers = 8
	const itersPerWorker = 60
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < itersPerWorker; it++ {
				qi := (w + it) % queries.Rows()
				pi := (w*itersPerWorker + it) % len(paths)
				req := paths[pi]
				req.Query, req.K, req.NProbe = queries.Row(qi), 10, ram.Partitions()
				got, err := paged.Query(ctx, req)
				if err != nil {
					errc <- err
					return
				}
				want := oracle[key{qi, pi}]
				for i := range want.Results {
					if got.Results[i] != want.Results[i] {
						errc <- fmt.Errorf("worker %d iter %d %v/%v q%d: result %d = %+v, want %+v (scan read an evicted frame?)",
							w, it, req.Kernel, req.Backend, qi, i, got.Results[i], want.Results[i])
						return
					}
				}
				ps := paged.pg.PoolStats()
				if ps.ResidentBytes > ps.CapacityBytes+ps.PinnedBytes {
					errc <- fmt.Errorf("pool invariant violated: resident %d > capacity %d + pinned %d",
						ps.ResidentBytes, ps.CapacityBytes, ps.PinnedBytes)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	ps := paged.pg.PoolStats()
	if ps.Evictions == 0 {
		t.Fatalf("storm at 10%% capacity never evicted (capacity %d, resident %d): test is vacuous", ps.CapacityBytes, ps.ResidentBytes)
	}
	poisonMu.Lock()
	defer poisonMu.Unlock()
	if poisoned == 0 {
		t.Fatal("eviction hook never ran")
	}
	t.Logf("storm: %d evictions, %d poisoned frames, hits %d misses %d", ps.Evictions, poisoned, ps.Hits, ps.Misses)
}

// TestPagedMutationStorm: concurrent searchers over a paged index while
// a mutator applies the same Add/Delete/Compact sequence to the paged
// index and a RAM twin in lockstep. Searches during the storm must
// never error (every epoch transition stays consistent); after
// quiescing, the twins must agree bit-for-bit.
func TestPagedMutationStorm(t *testing.T) {
	ram, paged, queries := buildTwin(t, 505, 6000)
	if err := paged.AttachStore(t.TempDir(), 1<<22); err != nil { // 4 MiB: evictions during the storm
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	errc := make(chan error, 5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			paths := scanPaths()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				req := paths[it%len(paths)]
				req.Query, req.K, req.NProbe = queries.Row((w+it)%queries.Rows()), 5, paged.Partitions()
				if _, err := paged.Query(ctx, req); err != nil {
					errc <- fmt.Errorf("search during mutation storm: %w", err)
					return
				}
			}
		}(w)
	}

	// Lockstep mutator: both twins see the identical op sequence, so
	// their final states must match exactly.
	gen := dataset.NewGenerator(dataset.Config{Seed: 515, Dim: 32})
	for round := 0; round < 6; round++ {
		batch := gen.Generate(120)
		ids, err := ram.Add(batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := paged.Add(batch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ids); i += 2 {
			if err := ram.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
			if err := paged.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		if round%2 == 1 {
			if _, err := ram.Compact(0); err != nil {
				t.Fatal(err)
			}
			if _, err := paged.Compact(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	assertIdentical(t, ram, paged, queries, "post-storm")
}

package index

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pqfastscan/internal/bufpool"
	"pqfastscan/internal/dataset"
	"pqfastscan/internal/extent"
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
	assertSame(t, ram, paged, queries, tag, true)
}

// assertSame is assertIdentical, the scan stats compared only when
// asked: twins whose tails were folded at different times hold the same
// rows in different layouts.
func assertSame(t *testing.T, ram, paged *Index, queries vec.Matrix, tag string, stats bool) {
	t.Helper()
	ctx := context.Background()
	for _, path := range scanPaths(t) {
		req := path.request(t)
		for qi := 0; qi < queries.Rows(); qi++ {
			req.Query, req.K, req.NProbe = queries.Row(qi), 10, ram.Partitions()
			want, err := ram.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: ram query (%v): %v", tag, path, err)
			}
			got, err := paged.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: paged query (%v): %v", tag, path, err)
			}
			sameAnswer(t, fmt.Sprintf("%s: %v q%d", tag, path, qi), got.Results, want.Results)
			if stats && got.Stats != want.Stats {
				t.Fatalf("%s: %v q%d stats %+v, want %+v", tag, path, qi, got.Stats, want.Stats)
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
	// Also tombstone build-time rows, exercising the paged walk that
	// builds the Delete routing table.
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
	rm, err := ram.GroupedMemoryBytes()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := paged.GroupedMemoryBytes()
	if err != nil {
		t.Fatal(err)
	}
	if rm != pm {
		t.Fatalf("grouped footprint diverged: %+v RAM, %+v paged", rm, pm)
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
	checkLayouts(t, pagedR)
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
	paths := kernelPaths()
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
						errc <- fmt.Errorf("worker %d iter %d %v q%d: result %d = %+v, want %+v (scan read an evicted frame?)",
							w, it, req.Kernel, qi, i, got.Results[i], want.Results[i])
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
			paths := kernelPaths()
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
	checkLayouts(t, ram)
	checkLayouts(t, paged)
}

// extentFiles lists the extent files in dir.
func extentFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), extent.Suffix) {
			out[e.Name()] = true
		}
	}
	return out
}

// TestPagedAddWritesNoExtent: on a disk-backed index an Add publishes
// its rows in the RAM tail and writes nothing; only the fold of a full
// tail writes an extent, one. 1 000 single-vector Adds used to create
// 1 000 extent files.
func TestPagedAddWritesNoExtent(t *testing.T) {
	ram, paged, queries := buildTwin(t, 303, 6000)
	dir := t.TempDir()
	if err := paged.AttachStore(dir, 1<<30); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ram, paged, queries, "fresh") // and both twins' layouts are built, over the same rows
	seen := extentFiles(t, dir)
	attached := len(seen)
	// Extent files are removed by finalizers at any time, but only
	// created inside an Add: looking after each one misses none.
	created := func() int {
		for name := range extentFiles(t, dir) {
			seen[name] = true
		}
		return len(seen) - attached
	}
	gen := dataset.NewGenerator(dataset.Config{Seed: 304, Dim: 32})
	adds := 0
	addOne := func() {
		v := vec.Matrix{Data: gen.Generate(1).Row(0), Dim: 32}
		for _, ix := range []*Index{ram, paged} {
			if _, err := ix.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		adds++
	}
	for adds < 1000 {
		addOne()
		if n := created(); n > 4 {
			t.Fatalf("%d extent files created by %d single-vector Adds, want at most 4 per 1000", n, adds)
		}
	}
	tails := 0
	for _, st := range paged.PartitionStats() {
		tails += st.Tail
	}
	if tails != 1000-foldTail*created() {
		t.Fatalf("tails hold %d rows after 1000 Adds and %d folds", tails, created())
	}
	assertIdentical(t, ram, paged, queries, "1000 adds")

	// On to the first fold after those: exactly one extent, for the one
	// partition whose tail filled.
	before := created()
	for created() == before {
		if adds > 1000+4*foldTail {
			t.Fatalf("no fold in %d Adds over 4 partitions", adds)
		}
		addOne()
	}
	folded := 0
	for _, st := range paged.PartitionStats() {
		if st.Tail == 0 {
			folded++
		}
	}
	if created() != before+1 || folded != 1 {
		t.Fatalf("the Add that filled a tail created %d extents and emptied %d tails, want 1 and 1", created()-before, folded)
	}
	assertIdentical(t, ram, paged, queries, "first fold")
}

// TestPagedFoldFailureKeepsTheTail: when the store cannot be written, a
// batch whose folds all fail is still applied whole — every
// acknowledged row searchable from the tail, Add returning nil — a
// compaction reports the error to its caller, and the first Add after
// the store is back folds what was left. An AddBatch used to return the
// write error of one partition after publishing the ones before it.
func TestPagedFoldFailureKeepsTheTail(t *testing.T) {
	ram, paged, queries := buildTwin(t, 404, 6000)
	dir := filepath.Join(t.TempDir(), "store")
	// A pool holding every extent: with the directory gone, reads are
	// served from the frames the first queries brought in.
	if err := paged.AttachStore(dir, 1<<30); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ram, paged, queries, "fresh")

	// Root ignores permission bits, so the directory is made unwritable
	// by moving it away: creating a file in it fails either way.
	away := dir + ".away"
	if err := os.Rename(dir, away); err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(dataset.Config{Seed: 405, Dim: 32})
	batch := gen.Generate(4 * 2 * foldTail)
	ramIDs, err := ram.Add(batch)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := paged.Add(batch)
	if err != nil {
		t.Fatalf("Add with an unwritable store: %v (the rows are in the tail; a failed fold is not an error)", err)
	}
	if len(ids) != batch.Rows() || ids[0] != ramIDs[0] {
		t.Fatalf("acknowledged %d ids from %d, want %d from %d", len(ids), ids[0], batch.Rows(), ramIDs[0])
	}
	// No fold can have succeeded: the whole batch is in the tails, most
	// of them past the fold.
	applied, due := 0, 0
	for _, st := range paged.PartitionStats() {
		applied += st.Tail
		if st.Tail >= foldTail {
			due++
		}
	}
	if applied != batch.Rows() || due < 2 || paged.Live() != ram.Live() {
		t.Fatalf("batch half applied: %d of %d rows in the tails (%d of them due a fold), %d live (twin %d)", applied, batch.Rows(), due, paged.Live(), ram.Live())
	}
	assertSame(t, ram, paged, queries, "unwritable store", false)
	if err := paged.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := ram.Delete(ramIDs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := paged.CompactPartition(0); err == nil {
		t.Fatal("CompactPartition reported no error with an unwritable store")
	}
	assertSame(t, ram, paged, queries, "failed compaction", false)

	// The store is back: the next Add into each partition folds its tail.
	if err := os.Rename(away, dir); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < paged.Partitions(); c++ {
		for _, ix := range []*Index{ram, paged} {
			addTo(t, ix, dataset.NewGenerator(dataset.Config{Seed: 406 + uint64(c), Dim: 32}), c, 1)
		}
		if st := paged.PartitionStats()[c]; st.Tail >= foldTail {
			t.Fatalf("partition %d: tail %d after an Add with the store back", c, st.Tail)
		}
	}
	assertSame(t, ram, paged, queries, "store back", false)
}

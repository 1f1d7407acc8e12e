package index

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/vec"
)

// checkRouting holds ix's Delete routing table to a fresh walk of its
// current snapshot: it routes exactly the live rows' ids, each to its
// cell and row; it keeps no range without a live id, spills no id of a
// range with an array and leaves no range of locDense live ids without
// one; its spill has been copied small once it fell to a quarter of its
// peak; and its per-range live counts sum to Live(). A table no Delete
// has built yet is built first, by a Delete of an id that is never
// live.
func checkRouting(t *testing.T, ix *Index) {
	t.Helper()
	if err := ix.Delete(-1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of id -1: %v, want ErrNotFound", err)
	}
	want := make(map[int64][2]int)
	for c, pe := range ix.snap.Load().Parts {
		p, _, release, err := pe.view()
		if err != nil {
			t.Fatal(err)
		}
		eachLive(c, p, 0, func(id int64, c, row int) { want[id] = [2]int{c, row} })
		release()
	}
	ix.locateMu.Lock()
	defer ix.locateMu.Unlock()
	tb := ix.locate
	match := func(id, l int64) {
		c, row := unpackLoc(l - 1)
		if w, ok := want[id]; !ok || w != [2]int{c, row} {
			t.Fatalf("table routes id %d to cell %d row %d; the snapshot has %v (live %v)", id, c, row, w, ok)
		}
	}
	if tb.peak < len(tb.spill) || tb.peak >= locDense && 4*len(tb.spill) <= tb.peak {
		t.Fatalf("spill holds %d ids after a peak of %d", len(tb.spill), tb.peak)
	}
	held := make(map[int64]int)
	for id, l := range tb.spill {
		if tb.dir[id>>locShift].routes != nil {
			t.Fatalf("id %d is spilled, but its range has an array", id)
		}
		match(id, l)
		held[id>>locShift]++
	}
	routed, live := 0, 0
	for k, ch := range tb.dir {
		if ch.routes != nil {
			for j, l := range ch.routes {
				if l != 0 {
					match(k<<locShift+int64(j), l)
					held[k]++
				}
			}
		} else if ch.live >= locDense {
			t.Fatalf("range %d has %d live ids and no array", k, ch.live)
		}
		if held[k] == 0 || held[k] != ch.live {
			t.Fatalf("range %d holds %d routes and counts %d live (array %v)", k, held[k], ch.live, ch.routes != nil)
		}
		routed += held[k]
		live += ch.live
	}
	if routed != len(want) {
		t.Fatalf("table routes %d ids, the snapshot has %d live", routed, len(want))
	}
	if live != ix.Live() {
		t.Fatalf("range live counts sum to %d, Live() is %d", live, ix.Live())
	}
}

// arrays returns how many ranges of ix's routing table have an array.
func arrays(ix *Index) int {
	ix.locateMu.Lock()
	defer ix.locateMu.Unlock()
	n := 0
	for _, ch := range ix.locate.dir {
		if ch.routes != nil {
			n++
		}
	}
	return n
}

// checkLayouts holds every epoch of ix's current snapshot to the Fast
// Scan layout it was constructed with: the layout is bound to the
// epoch's own Part, covers its base (keep region and grouped rows), and
// its dead lanes are exactly the lanes of the base's dead grouped rows.
// Stubs answer all of it from their resident directory and bits, so a
// paged epoch is checked without a pin.
func checkLayouts(t *testing.T, ix *Index) {
	t.Helper()
	for c, pe := range ix.snap.Load().Parts {
		fs := pe.fast
		if fs == nil || fs.Partition() != pe.Part {
			t.Fatalf("partition %d (epoch %d): the layout is not bound to the epoch's partition", c, pe.Epoch)
		}
		base := pe.Part.N - pe.Part.Tail()
		if fs.Covered() != base || fs.KeepN()+fs.Grouped().N != base {
			t.Fatalf("partition %d (epoch %d): the layout covers %d rows (keep %d, grouped %d) of a base of %d",
				c, pe.Epoch, fs.Covered(), fs.KeepN(), fs.Grouped().N, base)
		}
		want := make(map[int]bool)
		for i := fs.KeepN(); i < base; i++ {
			if pe.Part.DeadAt(i) {
				want[fs.Lane(i)] = true
			}
		}
		blocks := 0
		for _, g := range fs.Grouped().Groups {
			blocks = max(blocks, g.BlockStart+g.BlockCount)
		}
		for blk := 0; blk < blocks; blk++ {
			lanes := fs.DeadLanes(blk)
			for k := 0; k < 16; k++ {
				if dead := lanes>>k&1 == 1; dead != want[16*blk+k] {
					t.Fatalf("partition %d (epoch %d): lane %d dead %v, its row dead %v", c, pe.Epoch, 16*blk+k, dead, want[16*blk+k])
				}
			}
		}
	}
}

// TestEveryEpochHasItsLayout: wherever an index or an epoch is made —
// Build, RestrictCells, AttachStore, and the Adds, Deletes, folds and
// compactions after them, RAM and paged — every epoch carries the
// layout checkLayouts holds it to. Loading is load_test.go's.
func TestEveryEpochHasItsLayout(t *testing.T) {
	ram, paged, _ := buildTwin(t, 41, 6000)
	checkLayouts(t, ram)
	shard, err := ram.RestrictCells([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	checkLayouts(t, shard)
	// Its emptied cells are sealed too when it is attached, and scanned.
	if err := shard.AttachStore(t.TempDir(), 1<<22); err != nil {
		t.Fatal(err)
	}
	checkLayouts(t, shard)
	q := dataset.NewGenerator(dataset.Config{Seed: 43, Dim: 32}).Generate(1).Row(0)
	if _, err := shard.Query(context.Background(), Request{Query: q, K: 5, NProbe: shard.Partitions()}); err != nil {
		t.Fatal(err)
	}
	if err := paged.AttachStore(t.TempDir(), 1<<22); err != nil {
		t.Fatal(err)
	}
	checkLayouts(t, paged)
	if shard, err = paged.RestrictCells([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	checkLayouts(t, shard)

	gen := dataset.NewGenerator(dataset.Config{Seed: 42, Dim: 32})
	rows := gen.Generate(3*foldTail + 100)
	for _, ix := range []*Index{ram, paged} {
		ids, err := ix.Add(rows)
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < ids[len(ids)-1]; id += 5 {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		checkLayouts(t, ix)
		checkRouting(t, ix)
		if _, err := ix.Compact(0); err != nil {
			t.Fatal(err)
		}
		checkLayouts(t, ix)
		checkRouting(t, ix)
	}
}

// restoreIDs returns an index over src's model whose partition 0 holds
// a row for each of ids, its code from codes (zero when codes is nil),
// the other partitions empty, and whose allocator stands at next.
func restoreIDs(src *Index, codes []uint8, ids []int64, next int64) *Index {
	if codes == nil {
		codes = make([]uint8, len(ids)*scan.M)
	}
	parts := make([]*scan.Partition, src.Partitions())
	parts[0] = scan.NewPartition(codes, ids)
	for c := 1; c < len(parts); c++ {
		parts[c] = scan.NewPartition(nil, nil)
	}
	return Restore(src.Dim, src.Coarse, src.PQ, parts, src.opt, next)
}

// TestRoutingHostileAndSparseIDs: an index whose two ids lie 2⁶² apart
// routes them with two hashed entries, not a directory sized by the
// largest id nor an array each; ids that are not live — negative, at
// the allocator, the largest int64 — are ErrNotFound and change
// nothing; and deleting a range's last live id drops the range.
func TestRoutingHostileAndSparseIDs(t *testing.T) {
	src, _, _ := sharedIndex(t)
	top := int64(1)<<62 - 1
	ix := restoreIDs(src, nil, []int64{0, top}, 1<<62)
	for _, id := range []int64{-1, ix.NextID(), math.MaxInt64} {
		if err := ix.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("delete of id %d: %v, want ErrNotFound", id, err)
		}
		if n, b := len(ix.locate.dir), ix.DeleteRoutingBytes(); n != 2 || b != 32 {
			t.Fatalf("after deleting id %d the table holds %d ranges in %d bytes, want 2 in 32", id, n, b)
		}
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)
	for i, id := range []int64{top, 0} {
		if err := ix.Delete(id); err != nil {
			t.Fatalf("delete of id %d: %v", id, err)
		}
		if n := len(ix.locate.dir); n != 1-i {
			t.Fatalf("after deleting id %d the table holds %d ranges, want %d", id, n, 1-i)
		}
	}
	if ix.Live() != 0 || ix.DeleteRoutingBytes() != 0 {
		t.Fatalf("%d rows live and %d routing bytes after deleting both ids", ix.Live(), ix.DeleteRoutingBytes())
	}
}

// TestRoutingFollowsDensity: a range gets an array only once locDense of
// its ids are live. An index of 2 100 ids 4 096 apart — one per range —
// builds its table on the first Delete within 256 bytes per row, where
// an array per range would cost 32 KiB each; beside them, a range of
// locDense live ids has an array and one of locDense−1 has none.
func TestRoutingFollowsDensity(t *testing.T) {
	src, _, _ := sharedIndex(t)
	const sparse = 2100
	var ids []int64
	for i := int64(0); i < sparse; i++ {
		ids = append(ids, i<<locShift+7)
	}
	for j := int64(0); j < locDense; j++ {
		ids = append(ids, sparse<<locShift+j)
	}
	for j := int64(0); j < locDense-1; j++ {
		ids = append(ids, (sparse+1)<<locShift+j)
	}
	ix := restoreIDs(src, nil, ids, (sparse+2)<<locShift)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := ix.Delete(ids[0])
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := after.TotalAlloc - before.TotalAlloc
	if n > 256*uint64(len(ids)) {
		t.Fatalf("the first Delete of a %d-row index allocated %d bytes (%.0f a row)", len(ids), n, float64(n)/float64(len(ids)))
	}
	t.Logf("the first Delete of a %d-row index allocated %d bytes (%.0f a row)", len(ids), n, float64(n)/float64(len(ids)))
	if n := arrays(ix); n != 1 {
		t.Fatalf("%d ranges have an array, want 1", n)
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)
	// Deleting the sparse ids and 300 of the last range's takes the
	// spill from its peak of 3 123 ids to 723; it is copied small on
	// the way, when it falls to 780.
	for _, id := range append(ids[1:sparse:sparse], ids[sparse+locDense:][:300]...) {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if n, peak := len(ix.locate.spill), ix.locate.peak; n != 723 || peak != 780 {
		t.Fatalf("spill holds %d ids after a peak of %d, want 723 after 780", n, peak)
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)
}

// TestRoutingArraysComeAndGo: a writer that deletes each row it adds —
// lib_mixed's cycle — keeps one live id in a fresh range and allocates
// no array for it. Adds that make locDense of a range's ids live give it
// one, row by row or in one batch, and Deletes of all of them drop it
// again, even when the allocator has moved on (ids allocated and never
// registered, as by a durable Add whose log append fails).
func TestRoutingArraysComeAndGo(t *testing.T) {
	src, base, _ := sharedIndex(t)
	ix := Restore(src.Dim, src.Coarse, src.PQ, src.Parts(), src.opt, 1<<15)
	checkRouting(t, ix)
	checkLayouts(t, ix)
	built := arrays(ix)
	add := func(n int) []int64 {
		t.Helper()
		ids, err := ix.Add(vec.Matrix{Data: base.Data[:n*ix.Dim], Dim: ix.Dim})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	for i := 0; i < 3; i++ {
		ids := add(1)
		if err := ix.Delete(ids[0]); err != nil {
			t.Fatal(err)
		}
		if n := arrays(ix); n != built {
			t.Fatalf("cycle %d: %d ranges have an array, want %d", i, n, built)
		}
	}
	var added []int64
	for i := 0; i < locDense; i++ {
		if n := arrays(ix); n != built {
			t.Fatalf("%d live ids in a fresh range: %d ranges have an array, want %d", i, n, built)
		}
		added = append(added, add(1)...)
	}
	ix.AllocIDs(1 << locShift)
	added = append(added, add(locDense)...)
	if n := arrays(ix); n != built+2 {
		t.Fatalf("two ranges of locDense live ids: %d ranges have an array, want %d", n, built+2)
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)
	for _, id := range added {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := arrays(ix); n != built {
		t.Fatalf("after deleting every added id %d ranges have an array, want %d", n, built)
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)
}

// TestApplyAddRefusesNegativeID: a WAL frame is the one place an id
// reaches the index from outside its allocator; a negative one is
// refused before anything is applied.
func TestApplyAddRefusesNegativeID(t *testing.T) {
	src, _, _ := sharedIndex(t)
	ix := Restore(src.Dim, src.Coarse, src.PQ, src.Parts(), src.opt, src.NextID())
	live, next := ix.Live(), ix.NextID()
	code := make([]uint8, ix.PQ.M)
	if err := ix.ApplyAdd([]int{0, 1}, []int64{next, -3}, append(code, code...)); err == nil {
		t.Fatal("ApplyAdd of id -3 succeeded")
	}
	if ix.Live() != live || ix.NextID() != next {
		t.Fatalf("refused batch changed the index: live %d -> %d, next id %d -> %d", live, ix.Live(), next, ix.NextID())
	}
}

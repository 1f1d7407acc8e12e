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
// current snapshot (checkTable), whose live rows number Live(). A table
// no Delete has built yet is built first, by a Delete of an id that is
// never live.
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
	if len(want) != ix.Live() {
		t.Fatalf("the snapshot has %d live rows, Live() is %d", len(want), ix.Live())
	}
	ix.locateMu.Lock()
	defer ix.locateMu.Unlock()
	checkTable(t, ix.locate, want)
}

// checkTable holds tb to want, the place of every live id: it routes
// exactly want's ids, each to its cell and row; it keeps no range
// without a live id, spills no id of a range with an array whose route
// fits a word and leaves no range of locDense live ids without an
// array; its spill has been copied small once it fell to a quarter of
// its peak; and each range's live count is the routes it holds.
func checkTable(t *testing.T, tb *locTable, want map[int64][2]int) {
	t.Helper()
	match := func(id int64, c, row int) {
		if w, ok := want[id]; !ok || w != [2]int{c, row} {
			t.Fatalf("table routes id %d to cell %d row %d; want %v (live %v)", id, c, row, w, ok)
		}
	}
	if tb.peak < len(tb.spill) || tb.peak >= locDense && 4*len(tb.spill) <= tb.peak {
		t.Fatalf("spill holds %d ids after a peak of %d", len(tb.spill), tb.peak)
	}
	held := make(map[int64]int)
	for id, l := range tb.spill {
		c, row := unpackLoc(l - 1)
		if _, fits := tb.word(c, row); fits && tb.dir[id>>locShift].routes != nil {
			t.Fatalf("id %d is spilled, but its range has an array and its route fits a word", id)
		}
		match(id, c, row)
		held[id>>locShift]++
	}
	routed := 0
	for k, ch := range tb.dir {
		if ch.routes != nil {
			for j, w := range ch.routes {
				if w != 0 {
					c, row := tb.unword(w)
					match(k<<locShift+int64(j), c, row)
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
	}
	if routed != len(want) {
		t.Fatalf("table routes %d ids, want %d", routed, len(want))
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
// an array per range would cost 16 KiB each; beside them, a range of
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
	// One 16 KiB array, and 16 bytes for each of the other ranges' ids.
	if b, want := ix.DeleteRoutingBytes(), 4<<locShift+16*(sparse-1+locDense-1); b != want {
		t.Fatalf("the table holds %d bytes, want %d", b, want)
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
// one, exactly 16 KiB of DeleteRoutingBytes, row by row or in one batch,
// and Deletes of all of them drop it again, bytes and all, even when the allocator has moved on (ids allocated and never
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
	bytes := ix.DeleteRoutingBytes()
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
	if b := ix.DeleteRoutingBytes(); b != bytes+2<<14 {
		t.Fatalf("two dense ranges took the table from %d to %d bytes, want 16 KiB each", bytes, b)
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)
	for _, id := range added {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := arrays(ix), ix.DeleteRoutingBytes(); n != built || b != bytes {
		t.Fatalf("after deleting every added id %d ranges have an array in %d bytes, want %d in %d", n, b, built, bytes)
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)
}

// TestRoutingWordOverflowSpills: at any cell count the largest place
// that fits a route word round-trips through it. In a table for 2²⁸
// cells a word keeps 4 bits of row, so a route of row 16 or more — or
// the one place that packs to 2³²−1, whose +1 would wrap — does not fit
// and is spilled even in a range with an array. Such routes round-trip
// by get, set and del; unspill, which gives their range its array,
// leaves them in the spill; and a rebuild that moves an id across the
// boundary moves its route between array and spill, its range's live
// count unchanged.
func TestRoutingWordOverflowSpills(t *testing.T) {
	// At any cell count the largest cell and row that fit round-trip
	// through a word, and one more row does not fit.
	for _, cells := range []int{1, 2, 4, 5, 1 << 16, 1 << 28} {
		tb := newLocTable(cells)
		c, row := cells-1, 1<<tb.rowBits-1
		if c == 1<<(32-tb.rowBits)-1 {
			row-- // the place that packs to 2³²−1
		}
		w, fits := tb.word(c, row)
		if gc, grow := tb.unword(w); !fits || gc != c || grow != row {
			t.Fatalf("%d cells: cell %d row %d packs to %#x (fits %v), unpacks to cell %d row %d", cells, c, row, w, fits, gc, grow)
		}
		if _, fits := tb.word(c, row+1); fits {
			t.Fatalf("%d cells: cell %d row %d fits a word of %d row bits", cells, c, row+1, tb.rowBits)
		}
	}
	const cells = 1 << 28
	tb := newLocTable(cells)
	if tb.rowBits != 4 {
		t.Fatalf("%d cells leave %d row bits, want 4", cells, tb.rowBits)
	}
	if _, fits := tb.word(cells-1, 15); fits {
		t.Fatal("the place packing to 2³²−1 fits a word")
	}
	if _, fits := tb.word(cells-1, 14); !fits {
		t.Fatal("the largest cell's row 14 does not fit a word")
	}
	want := make(map[int64][2]int)
	set := func(id int64, c, row int) {
		t.Helper()
		tb.set(id, c, row)
		want[id] = [2]int{c, row}
		if gc, grow, ok := tb.get(id); !ok || gc != c || grow != row {
			t.Fatalf("id %d set to cell %d row %d reads back cell %d row %d (live %v)", id, c, row, gc, grow, ok)
		}
	}
	del := func(id int64) {
		t.Helper()
		tb.del(id)
		delete(want, id)
		if _, _, ok := tb.get(id); ok {
			t.Fatalf("id %d still routed after del", id)
		}
	}
	spilled := func() int {
		n := 0
		for id := range want {
			if _, fits := tb.word(want[id][0], want[id][1]); !fits {
				n++
			}
		}
		return n
	}
	// Range 0 fills to locDense ids, rows cycling through 0…31 so that
	// half do not fit; id 5 takes the place that would wrap.
	for id := int64(0); id < locDense; id++ {
		if id == 5 {
			set(id, cells-1, 15)
		} else {
			set(id, int(id), int(id%32))
		}
	}
	if tb.dir[0].routes == nil {
		t.Fatal("range 0 has no array at locDense live ids")
	}
	if n := spilled(); len(tb.spill) != n || n != locDense/2+1 {
		t.Fatalf("spill holds %d ids; %d routes do not fit, want %d", len(tb.spill), n, locDense/2+1)
	}
	checkTable(t, tb, want)
	// An id added to the range with a route too wide goes to the spill;
	// rebuilds move id 1 out of its word and id 20 into one.
	set(locDense, 3, 100)
	set(1, 1, 20)
	set(20, 20, 3)
	if _, ok := tb.spill[1]; !ok || tb.dir[0].routes[1] != 0 {
		t.Fatal("id 1, moved to row 20, is not in the spill alone")
	}
	if _, ok := tb.spill[20]; ok || tb.dir[0].routes[20] == 0 {
		t.Fatal("id 20, moved to row 3, is not in its word alone")
	}
	if n := tb.dir[0].live; n != locDense+1 {
		t.Fatalf("range 0 counts %d live ids, want %d", n, locDense+1)
	}
	checkTable(t, tb, want)
	for id := range want {
		if _, fits := tb.word(want[id][0], want[id][1]); !fits {
			del(id)
		}
	}
	if len(tb.spill) != 0 {
		t.Fatalf("spill holds %d ids after every route that did not fit was deleted", len(tb.spill))
	}
	checkTable(t, tb, want)
	for id := range want {
		del(id)
	}
	if len(tb.dir) != 0 || len(tb.spill) != 0 {
		t.Fatalf("%d ranges and %d spilled ids left with nothing live", len(tb.dir), len(tb.spill))
	}
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

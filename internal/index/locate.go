// Delete routing: the table that gives a live id's cell and row, so a
// Delete finds the row to tombstone without a scan. Ids come from one
// dense allocator (build assigns 0…N−1, Add takes contiguous blocks,
// WAL replay only moves the allocator forward), so where ids are dense
// id → (cell, row) is stored by id, in chunks of consecutive ids, not
// hashed: 8 bytes per id of a chunk. Where they are sparse — a file may
// hold any ids below its allocator — they are hashed, so a chunk is
// made only for a range that is a quarter live and the table never
// costs much more per live id than a hash map. DESIGN.md §11 "Publish
// ordering" has the locking and §4 the costs.
package index

import "pqfastscan/internal/scan"

// locShift sets a chunk's width: one chunk routes 1<<locShift
// consecutive ids.
const locShift = 12

// locDense is the number of live ids a chunk's range must hold before it
// gets an array: a quarter of it, so an array costs at most 32 bytes per
// live id when it is made, about what a hash entry costs.
const locDense = 1 << locShift / 4

// locChunk is one directory entry: how many of the ids
// [k<<locShift, (k+1)<<locShift) are live, and, once locDense of them
// were, their routes, each packLoc(cell, row)+1, with 0 for an id that
// is not live. The count lives here, not in the array: 4 096 routes are
// exactly 32 KiB, Go's largest small size class, and one word more
// rounds the object up to 40 KiB. A fresh array is zero, so it needs no
// fill. With routes nil the range's live ids are in locTable.spill.
type locChunk struct {
	routes *[1 << locShift]int64
	live   int
}

// locTable maps every live id to its place. The directory is keyed by
// id>>locShift and is a map, not a slice indexed by the key: a slice is
// sized by the largest id, and a file may legally hold id 2⁶²−1. A
// range is dropped with its last live id, array and all. A nil
// *locTable has not been built; the first Delete builds it. Guarded by
// Index.locateMu.
type locTable struct {
	dir map[int64]locChunk
	// spill routes the live ids of every range that has no array. A Go
	// map keeps the room it once grew to, so peak — its most entries
	// since it was last made — tells when to copy it into a smaller one.
	spill map[int64]int64
	peak  int
}

// buildLocTable returns the table of the rows walk yields, walking them
// twice: first to count the live ids of each range, so a dense range
// gets its array before any of its ids is set and never passes through
// spill, then to set them.
func buildLocTable(walk func(fn func(id int64, c, row int)) error) (*locTable, error) {
	t := &locTable{dir: make(map[int64]locChunk), spill: make(map[int64]int64)}
	count := make(map[int64]int)
	if err := walk(func(id int64, _, _ int) { count[id>>locShift]++ }); err != nil {
		return nil, err
	}
	for k, n := range count {
		if n >= locDense {
			t.dir[k] = locChunk{routes: new([1 << locShift]int64)}
		}
	}
	if err := walk(t.set); err != nil {
		return nil, err
	}
	return t, nil
}

// packLoc packs a row's place: the cell in the high 32 bits, the row's
// position in its partition in the low 32.
func packLoc(c, row int) int64 { return int64(c)<<32 | int64(row) }

// unpackLoc is the inverse of packLoc.
func unpackLoc(l int64) (c, row int) { return int(l >> 32), int(uint32(l)) }

// get returns the place of id, ok false when it is not live.
func (t *locTable) get(id int64) (c, row int, ok bool) {
	ch, ok := t.dir[id>>locShift]
	if !ok {
		return 0, 0, false
	}
	var l int64
	if ch.routes != nil {
		l = ch.routes[id&(1<<locShift-1)]
	} else {
		l = t.spill[id]
	}
	if l == 0 {
		return 0, 0, false
	}
	c, row = unpackLoc(l - 1)
	return c, row, true
}

// set routes id to row row of cell c. The id's range gets its array
// when this makes locDense of its ids live.
func (t *locTable) set(id int64, c, row int) {
	k := id >> locShift
	ch := t.dir[k]
	l := packLoc(c, row) + 1
	if ch.routes != nil {
		slot := &ch.routes[id&(1<<locShift-1)]
		if *slot == 0 {
			ch.live++
		}
		*slot = l
	} else {
		if _, ok := t.spill[id]; !ok {
			ch.live++
		}
		t.spill[id] = l
		t.peak = max(t.peak, len(t.spill))
		if ch.live >= locDense {
			ch.routes = t.unspill(k)
		}
	}
	t.dir[k] = ch
}

// unspill moves the spilled routes of range k into a fresh array.
func (t *locTable) unspill(k int64) *[1 << locShift]int64 {
	routes := new([1 << locShift]int64)
	for j := range routes {
		id := k<<locShift + int64(j)
		if l, ok := t.spill[id]; ok {
			routes[j] = l
			delete(t.spill, id)
		}
	}
	t.shrink()
	return routes
}

// shrink copies spill into a map of its size once it holds a quarter or
// less of its peak, so its room stays within four times its entries; a
// spill that never held locDense entries is left as it is. Each copy
// follows at least as many removals as it copies entries.
func (t *locTable) shrink() {
	if t.peak < locDense || 4*len(t.spill) > t.peak {
		return
	}
	s := make(map[int64]int64, len(t.spill))
	for id, l := range t.spill {
		s[id] = l
	}
	t.spill, t.peak = s, len(s)
}

// del forgets id, and its range with its last live id.
func (t *locTable) del(id int64) {
	k := id >> locShift
	ch, ok := t.dir[k]
	if !ok {
		return
	}
	if ch.routes != nil {
		slot := &ch.routes[id&(1<<locShift-1)]
		if *slot == 0 {
			return
		}
		*slot = 0
	} else {
		if _, ok := t.spill[id]; !ok {
			return
		}
		delete(t.spill, id)
		t.shrink()
	}
	if ch.live--; ch.live == 0 {
		delete(t.dir, k)
		return
	}
	t.dir[k] = ch
}

// eachLive calls fn with the id and place of every live row of p, cell
// c's, from position from on.
func eachLive(c int, p *scan.Partition, from int, fn func(id int64, c, row int)) {
	for i := from; i < p.N; i++ {
		if !p.DeadAt(i) {
			fn(p.ID(i), c, i)
		}
	}
}

// DeleteRoutingBytes returns the bytes the Delete routing table holds:
// 0 until the first Delete builds it, then 32 KiB for every range of
// 4 096 consecutive ids with an array, and 16 for every spilled id (its
// key and route; the hash map's own overhead is not counted).
func (ix *Index) DeleteRoutingBytes() int {
	ix.locateMu.Lock()
	defer ix.locateMu.Unlock()
	if ix.locate == nil {
		return 0
	}
	n := 16 * len(ix.locate.spill)
	for _, ch := range ix.locate.dir {
		if ch.routes != nil {
			n += 8 << locShift
		}
	}
	return n
}

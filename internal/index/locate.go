// Delete routing: the table that gives a live id's cell and row, so a
// Delete finds the row to tombstone without a scan. Ids come from one
// dense allocator (build assigns 0…N−1, Add takes contiguous blocks,
// WAL replay only moves the allocator forward), so where ids are dense
// id → (cell, row) is stored by id, in chunks of consecutive ids, not
// hashed: one 4-byte route word per id of a chunk. Where they are
// sparse — a file may hold any ids below its allocator — they are
// hashed, so a chunk is made only for a range that is a quarter live
// and the table never costs more per live id than a hash entry. A
// route too large for its word is hashed too. DESIGN.md §11 "Publish
// ordering" has the locking and §4 the costs.
package index

import (
	"math"
	"math/bits"

	"pqfastscan/internal/scan"
)

// locShift sets a chunk's width: one chunk routes 1<<locShift
// consecutive ids.
const locShift = 12

// locDense is the number of live ids a chunk's range must hold before it
// gets an array: a quarter of it, so an array of 4-byte words costs at
// most 16 bytes per live id when it is made, what a spilled id's key
// and route cost before the hash map's own overhead.
const locDense = 1 << locShift / 4

// locChunk is one directory entry: how many of the ids
// [k<<locShift, (k+1)<<locShift) are live, and, once locDense of them
// were, their route words (locTable.word), with 0 for an id the array
// does not route. The count lives here, not in the array: 4 096 words
// are exactly 16 KiB, a Go size class, and one word more rounds the
// object up to 18 KiB. A fresh array is zero, so it needs no fill.
// With routes nil the range's live ids are in locTable.spill; with an
// array, only those whose route does not fit a word are.
type locChunk struct {
	routes *[1 << locShift]uint32
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
	// spill routes, as packLoc(cell, row)+1, the live ids of every range
	// that has no array and those whose route does not fit a word. A Go
	// map keeps the room it once grew to, so peak — its most entries
	// since it was last made — tells when to copy it into a smaller one.
	spill map[int64]int64
	peak  int
	// rowBits is the width of a word's row field, the rest of its 32
	// bits holding the cell: fixed for the table's life, because an
	// index's cell count never changes.
	rowBits uint
	// wide is set once a route has not fit a word; until then no id of
	// a range with an array is in the spill, and set need not look.
	wide bool
}

// newLocTable returns an empty table for an index of cells cells.
func newLocTable(cells int) *locTable {
	return &locTable{
		dir:     make(map[int64]locChunk),
		spill:   make(map[int64]int64),
		rowBits: uint(32 - min(32, bits.Len(uint(cells-1)))),
	}
}

// buildLocTable returns the table, for an index of cells cells, of the
// rows walk yields, walking them twice: first to count the live ids of
// each range, so a dense range gets its array before any of its ids is
// set and never passes through spill, then to set them.
func buildLocTable(cells int, walk func(fn func(id int64, c, row int)) error) (*locTable, error) {
	t := newLocTable(cells)
	count := make(map[int64]int)
	if err := walk(func(id int64, _, _ int) { count[id>>locShift]++ }); err != nil {
		return nil, err
	}
	for k, n := range count {
		if n >= locDense {
			t.dir[k] = locChunk{routes: new([1 << locShift]uint32)}
		}
	}
	if err := walk(t.set); err != nil {
		return nil, err
	}
	return t, nil
}

// packLoc packs a row's place for the spill: the cell in the high 32
// bits, the row's position in its partition in the low 32.
func packLoc(c, row int) int64 { return int64(c)<<32 | int64(row) }

// unpackLoc is the inverse of packLoc.
func unpackLoc(l int64) (c, row int) { return int(l >> 32), int(uint32(l)) }

// word packs a row's place for an array: row | c<<rowBits, plus one so
// that 0 stays "not routed here". ok is false when the place does not
// fit — a row of 2^rowBits or more, or the one packed value whose +1
// would wrap — and the route goes to the spill.
func (t *locTable) word(c, row int) (w uint32, ok bool) {
	if row>>t.rowBits != 0 || c>>(32-t.rowBits) != 0 {
		return 0, false
	}
	p := uint32(c)<<t.rowBits | uint32(row)
	return p + 1, p != math.MaxUint32
}

// unword is the inverse of word.
func (t *locTable) unword(w uint32) (c, row int) {
	p := w - 1
	return int(p >> t.rowBits), int(p & (1<<t.rowBits - 1))
}

// get returns the place of id, ok false when it is not live.
func (t *locTable) get(id int64) (c, row int, ok bool) {
	ch, ok := t.dir[id>>locShift]
	if !ok {
		return 0, 0, false
	}
	if ch.routes != nil {
		if w := ch.routes[id&(1<<locShift-1)]; w != 0 {
			c, row = t.unword(w)
			return c, row, true
		}
	}
	l, ok := t.spill[id]
	if !ok {
		return 0, 0, false
	}
	c, row = unpackLoc(l - 1)
	return c, row, true
}

// set routes id to row row of cell c, in its range's array when it has
// one and the route fits a word, else in the spill. An id may move
// between the two when a rebuild gives it a new row. The id's range
// gets its array when this makes locDense of its ids live.
func (t *locTable) set(id int64, c, row int) {
	k, j := id>>locShift, id&(1<<locShift-1)
	ch := t.dir[k]
	w, fits := t.word(c, row)
	if ch.routes != nil && fits {
		if ch.routes[j] == 0 && !(t.wide && t.unspillID(id)) {
			ch.live++
		}
		ch.routes[j] = w
	} else {
		if ch.routes != nil && ch.routes[j] != 0 {
			ch.routes[j] = 0
		} else if _, ok := t.spill[id]; !ok {
			ch.live++
		}
		t.spill[id] = packLoc(c, row) + 1
		t.wide = t.wide || !fits
		t.peak = max(t.peak, len(t.spill))
		if ch.routes == nil && ch.live >= locDense {
			ch.routes = t.unspill(k)
		}
	}
	t.dir[k] = ch
}

// unspillID removes id from the spill, reporting whether it was there.
func (t *locTable) unspillID(id int64) bool {
	if _, ok := t.spill[id]; !ok {
		return false
	}
	delete(t.spill, id)
	t.shrink()
	return true
}

// unspill moves the spilled routes of range k that fit a word into a
// fresh array; the rest stay spilled.
func (t *locTable) unspill(k int64) *[1 << locShift]uint32 {
	routes := new([1 << locShift]uint32)
	for j := range routes {
		id := k<<locShift + int64(j)
		if l, ok := t.spill[id]; ok {
			if w, fits := t.word(unpackLoc(l - 1)); fits {
				routes[j] = w
				delete(t.spill, id)
			}
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
	k, j := id>>locShift, id&(1<<locShift-1)
	ch, ok := t.dir[k]
	if !ok {
		return
	}
	if ch.routes != nil && ch.routes[j] != 0 {
		ch.routes[j] = 0
	} else if !t.unspillID(id) {
		return
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
// 0 until the first Delete builds it, then 16 KiB for every range of
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
			n += 4 << locShift
		}
	}
	return n
}

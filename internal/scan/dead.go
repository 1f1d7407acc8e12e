package scan

import "math/bits"

// deadChunkBits is the span of one chunk of a deadSet: 4 096 positions
// in 64 words, 256 sixteen-lane blocks of a Fast Scan layout. Setting a
// bit copies one chunk (C/8 bytes) and the pointer slice (8N/C bytes),
// least near C = 8·√N: 2 500 for the 100k-row partitions served here,
// where 4 096 copies 512 + 200 bytes.
const (
	deadChunkBits  = 4096
	deadChunkWords = deadChunkBits / 64
)

// deadSet is a copy-on-write set of positions — a partition's
// tombstoned rows, or a Fast Scan layout's tombstoned block lanes. The
// bits live in fixed chunks behind a slice of chunk pointers; a nil
// pointer is a chunk with no bit set. A set reachable from a published
// partition or layout is never written; with copies one chunk and the
// pointer slice instead, so setting a bit costs O(N / 4 096) whatever
// the number of bits already set. The zero value is the empty set.
type deadSet struct {
	chunks []*[deadChunkWords]uint64
	n      int // bits set
}

// has reports whether position i is in the set.
func (d *deadSet) has(i int) bool {
	u := uint(i)
	c := u / deadChunkBits
	if c >= uint(len(d.chunks)) || d.chunks[c] == nil {
		return false
	}
	return d.chunks[c][u/64%deadChunkWords]>>(u%64)&1 != 0
}

// lanes returns the 16 bits of block blk — positions blk·16 .. blk·16+15
// — as a lane mask, bit k for position blk·16+k.
func (d *deadSet) lanes(blk int) uint32 {
	u := uint(blk)
	c := u / (deadChunkBits / 16)
	if c >= uint(len(d.chunks)) || d.chunks[c] == nil {
		return 0
	}
	return uint32(d.chunks[c][u/4%deadChunkWords]>>(u%4*16)) & 0xffff
}

// with returns the set plus position i, copying only the chunk that
// holds i and the chunk-pointer slice; d itself is unchanged. It
// reports false, returning d, when i is already in the set.
func (d deadSet) with(i int) (deadSet, bool) {
	if d.has(i) {
		return d, false
	}
	c := i / deadChunkBits
	chunks := make([]*[deadChunkWords]uint64, max(len(d.chunks), c+1))
	copy(chunks, d.chunks)
	ch := new([deadChunkWords]uint64)
	if c < len(d.chunks) && d.chunks[c] != nil {
		*ch = *d.chunks[c]
	}
	ch[i/64%deadChunkWords] |= 1 << (i % 64)
	chunks[c] = ch
	return deadSet{chunks: chunks, n: d.n + 1}, true
}

// set adds position i in place, reporting whether it was new — only for
// a set no published partition or layout can reach yet (one being
// built or restored).
func (d *deadSet) set(i int) bool {
	c := i / deadChunkBits
	for len(d.chunks) <= c {
		d.chunks = append(d.chunks, nil)
	}
	if d.chunks[c] == nil {
		d.chunks[c] = new([deadChunkWords]uint64)
	}
	w, b := &d.chunks[c][i/64%deadChunkWords], uint64(1)<<(i%64)
	if *w&b != 0 {
		return false
	}
	*w |= b
	d.n++
	return true
}

// each calls fn with every position in the set, in ascending order.
func (d *deadSet) each(fn func(i int)) {
	for c, ch := range d.chunks {
		if ch == nil {
			continue
		}
		for w, word := range ch {
			for ; word != 0; word &= word - 1 {
				fn(c*deadChunkBits + w*64 + bits.TrailingZeros64(word))
			}
		}
	}
}

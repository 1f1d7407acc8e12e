// Package layout implements the three database memory layouts of the
// paper for PQ 8×8 codes:
//
//   - row-major pqcodes (Figure 1), scanned by the naive and libpq kernels;
//   - the 8-vector transposed layout (Figure 5) required by the avx and
//     gather kernels, storing the first components of 8 vectors
//     contiguously so one 64-bit load fetches them;
//   - the grouped layout of PQ Fast Scan (Figure 9b): vectors are grouped
//     by the 4 most significant bits of their first c components, stored
//     in 16-vector blocks, with the grouped components packed to 4 bits.
//     With c = 4 this is the 25 % memory reduction of §4.2 and the 6
//     bytes loaded per lower-bound computation reported in §5.8.
//
// The grouped layout is a way to store the rows, not an index beside
// them: a grouped row's code is its group key and its block lane, and
// nothing else holds it. Code reads one row by position, a Walker reads
// a run of them a block at a time.
package layout

import (
	"fmt"
	"sort"
	"unsafe"
)

// M is the number of components per code; all scan kernels operate on
// PQ 8×8, the configuration the paper adopts (§3.1).
const M = 8

// BlockVectors is the number of vectors per grouped block: one SIMD
// register holds 16 lanes, so lower bounds are computed 16 vectors at a
// time.
const BlockVectors = 16

// MaxGroupComponents is the deepest grouping the paper uses (c = 4).
const MaxGroupComponents = 4

// Alignment is the guaranteed base alignment, in bytes, of packed block
// storage (Grouped.Blocks) and of the scratch buffers the assembly scan
// backends stream through (internal/simd/dispatch): one cache line, so
// vector loads in the hot loop never split across more lines than the
// data itself spans. Kernels use unaligned-tolerant loads (vmovdqu,
// vld1), so correctness never depends on it — alignment is a
// performance invariant, established here at construction (a layout is
// never modified afterwards).
const Alignment = 64

// AlignedBytes returns a zeroed length-n byte slice whose base address
// is Alignment-aligned and whose capacity is at least c.
func AlignedBytes(n, c int) []uint8 {
	if c < n {
		c = n
	}
	buf := make([]uint8, c+Alignment-1)
	off := int(-uintptr(unsafe.Pointer(&buf[0]))) & (Alignment - 1)
	return buf[off : off+n : off+c]
}

// Aligned reports whether the base address of b is Alignment-aligned
// (true for empty slices: there is no base to misalign).
func Aligned(b []uint8) bool {
	if cap(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[:1][0]))&(Alignment-1) == 0
}

// GroupSizeFloor is the paper's minimum useful average group size: "For
// best performance, s should exceed about 50 vectors" (§4.2), giving the
// partition-size rule nmin(c) = 50·16^c.
const GroupSizeFloor = 50

// BlockBytes returns the size of one packed block when grouping on c
// components: the c grouped components store only their low nibble
// (8 bytes per component per 16-vector block) while the remaining 8-c
// components keep full bytes (16 bytes each): 8c + 16(8-c) = 128 - 8c.
// For the paper's c = 4 this is 96 bytes, i.e. 6 bytes per vector.
func BlockBytes(c int) int { return 128 - 8*c }

// AutoComponents returns the number of grouping components for a
// partition of n vectors: the largest c in [0, 4] with n >= 50·16^c.
// This encodes §4.2 and the §5.6 observation that partitions below
// nmin(4) = 3.2 M vectors should group on fewer components.
func AutoComponents(n int) int {
	c := 0
	for c < MaxGroupComponents && n >= GroupSizeFloor*pow16(c+1) {
		c++
	}
	return c
}

// MinPartitionSize returns nmin(c) = 50·16^c, the smallest partition for
// which grouping on c components keeps groups above the size floor.
func MinPartitionSize(c int) int { return GroupSizeFloor * pow16(c) }

func pow16(c int) int {
	p := 1
	for i := 0; i < c; i++ {
		p *= 16
	}
	return p
}

// Transposed stores codes in 8-vector blocks with component-major order
// inside each block (Figure 5): block b holds
// a[0] b[0] ... h[0], a[1] ... h[1], ..., a[7] ... h[7].
// The tail (n mod 8 vectors) remains row-major in Tail.
type Transposed struct {
	N      int
	Blocks []uint8 // full 8-vector blocks, 64 bytes each
	Tail   []uint8 // row-major remainder codes
}

// NewTransposed builds the transposed layout from row-major codes (n x M).
func NewTransposed(codes []uint8) *Transposed {
	if len(codes)%M != 0 {
		panic("layout: codes not a multiple of M")
	}
	n := len(codes) / M
	full := n / 8
	t := &Transposed{N: n, Blocks: make([]uint8, full*64)}
	for b := 0; b < full; b++ {
		dst := t.Blocks[b*64 : (b+1)*64]
		for j := 0; j < M; j++ {
			for v := 0; v < 8; v++ {
				dst[j*8+v] = codes[(b*8+v)*M+j]
			}
		}
	}
	t.Tail = append([]uint8(nil), codes[full*8*M:]...)
	return t
}

// Component returns the j-th components of the 8 vectors of block b as a
// slice aliasing the block storage (the 64-bit word the gather and libpq
// variants load in one instruction).
func (t *Transposed) Component(b, j int) []uint8 {
	return t.Blocks[b*64+j*8 : b*64+j*8+8]
}

// FullBlocks returns the number of complete 8-vector blocks.
func (t *Transposed) FullBlocks() int { return len(t.Blocks) / 64 }

// Group describes one vector group of the grouped layout: all member
// vectors p satisfy, for each grouped component j < C,
// Key[j] == p[j] >> 4 (§4.2).
type Group struct {
	Key        [MaxGroupComponents]uint8 // high nibbles of components 0..C-1
	Start      int                       // first vector position (grouped order)
	Count      int                       // number of vectors in the group
	BlockStart int                       // index of the group's first block
	BlockCount int                       // number of 16-vector blocks
}

// Grouped is the PQ Fast Scan database layout of a run of rows in
// group-key order (GroupOrder) — in the index, the grouped part of a
// partition base. Blocks is the only copy of the rows' codes: a row's
// grouped components are its group's key (high nibbles) and its lane's
// packed low nibbles, its other components the lane's full bytes. A
// layout holds codes only: the rows' ids are the partition's, by
// position.
type Grouped struct {
	N      int
	C      int // number of grouped components (0..4)
	Groups []Group
	Blocks []uint8 // packed blocks, BlockBytes(C) each, grouped order

	blockBytes int
}

// padNibble / padByte fill the unused lanes of a group's final block.
// Padding lanes can produce arbitrary lower bounds; kernels mask them out
// by comparing lane positions against Group.Count.
const (
	padNibble = 0x0f
	padByte   = 0xff
)

// groupKey returns the group key of a code on c components: the high
// nibbles of components 0..c-1, first component most significant
// (keys < 16^c <= 65 536, so a uint16 holds one).
func groupKey(code []uint8, c int) uint16 {
	var k uint16
	for j := 0; j < c; j++ {
		k = k<<4 | uint16(code[j]>>4)
	}
	return k
}

// GroupOrder returns the stable permutation that puts the rows of codes
// in group-key order on c components (0 <= c <= MaxGroupComponents):
// row i of the ordered run is row perm[i] of codes, and rows with equal
// keys keep their relative order. It returns nil when codes are already
// in that order, so ordering an ordered run costs one pass and no copy.
func GroupOrder(codes []uint8, c int) []int {
	n := len(codes) / M
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = groupKey(codes[(i-1)*M:], c) <= groupKey(codes[i*M:], c)
	}
	if sorted {
		return nil
	}
	// Stable counting sort on the key: next[k] is the ordered position
	// of key k's next row.
	next := make([]int, pow16(c)+1)
	for i := 0; i < n; i++ {
		next[int(groupKey(codes[i*M:], c))+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		k := groupKey(codes[i*M:], c)
		perm[next[k]] = i
		next[k]++
	}
	return perm
}

// NewGrouped packs a run of row-major codes already in group-key order
// on the first c components (GroupOrder returns nil for it) into the
// grouped layout. The codes are read once and not retained — the packed
// blocks hold them. A run out of order is an error.
func NewGrouped(codes []uint8, c int) (*Grouped, error) {
	if c < 0 || c > MaxGroupComponents {
		return nil, fmt.Errorf("layout: grouping components %d out of range [0,4]", c)
	}
	if len(codes)%M != 0 {
		return nil, fmt.Errorf("layout: code array length %d not a multiple of %d", len(codes), M)
	}
	n := len(codes) / M
	g := &Grouped{N: n, C: c, blockBytes: BlockBytes(c)}

	// One group per run of equal keys, in key order.
	totalBlocks := 0
	for start := 0; start < n; {
		k := groupKey(codes[start*M:], c)
		end := start + 1
		for end < n && groupKey(codes[end*M:], c) == k {
			end++
		}
		if end < n && groupKey(codes[end*M:], c) < k {
			return nil, fmt.Errorf("layout: row %d is out of group-key order", end)
		}
		grp := Group{Start: start, Count: end - start, BlockStart: totalBlocks}
		grp.BlockCount = (grp.Count + BlockVectors - 1) / BlockVectors
		totalBlocks += grp.BlockCount
		for j, kk := c-1, k; j >= 0; j-- {
			grp.Key[j] = uint8(kk & 0x0f)
			kk >>= 4
		}
		g.Groups = append(g.Groups, grp)
		start = end
	}

	g.Blocks = AlignedBytes(totalBlocks*g.blockBytes, 0)
	for _, grp := range g.Groups {
		for b := 0; b < grp.BlockCount; b++ {
			g.packBlock(codes, grp, b)
		}
	}
	return g, nil
}

// group returns the index of the group holding grouped position pos.
func (g *Grouped) group(pos int) int {
	return sort.Search(len(g.Groups), func(i int) bool { return g.Groups[i].Start > pos }) - 1
}

// Lane returns the block lane of grouped position pos: its block's
// index times BlockVectors plus its lane in the block. Lanes count the
// padding of every group's last block, positions do not.
func (g *Grouped) Lane(pos int) int {
	grp := &g.Groups[g.group(pos)]
	return grp.BlockStart*BlockVectors + pos - grp.Start
}

// padCode is the code whose lanes pack to all-padding (low nibble
// padNibble, full byte padByte).
var padCode = [M]uint8{padByte, padByte, padByte, padByte, padByte, padByte, padByte, padByte}

// packBlock encodes 16 vectors (or the padded remainder) of grp, rows
// of codes, into its b-th block.
func (g *Grouped) packBlock(codes []uint8, grp Group, b int) {
	base := grp.Start + b*BlockVectors
	for lane := 0; lane < BlockVectors; lane++ {
		pos := base + lane
		code := padCode[:]
		if pos < grp.Start+grp.Count {
			code = codes[pos*M : (pos+1)*M]
		}
		g.packLane(grp.BlockStart+b, lane, code)
	}
}

// packLane writes one vector's nibbles and bytes into lane of block i.
func (g *Grouped) packLane(i, lane int, code []uint8) {
	blk := g.Block(i)
	// Grouped components: low nibble only, two lanes per byte.
	for j := 0; j < g.C; j++ {
		nib := code[j] & 0x0f
		idx := j*8 + lane/2
		if lane%2 == 0 {
			blk[idx] = blk[idx]&0xf0 | nib
		} else {
			blk[idx] = blk[idx]&0x0f | nib<<4
		}
	}
	// Ungrouped components: full byte.
	for j := g.C; j < M; j++ {
		blk[g.C*8+(j-g.C)*16+lane] = code[j]
	}
}

// Detach returns a shallow copy of the layout with its packed blocks
// dropped: a directory stub that keeps the group
// structure, counts and block geometry resident while the bytes live
// in a disk extent behind the buffer pool. A stub answers every
// structural question (BlockSize, PackedBytes of zero, group lookup)
// but must be Hydrated before any lane or code access.
func (g *Grouped) Detach() *Grouped {
	ng := *g
	ng.Blocks = nil
	return &ng
}

// Hydrate returns a shallow copy of the stub with the packed blocks
// Detach dropped attached — typically an alias into a pinned
// buffer-pool frame. The copy is a
// transient view: it is valid exactly as long as the pin is held, and
// the receiver stub is never mutated, so concurrent probes can hydrate
// the same stub against the same frame. Hydrate panics on length or
// alignment violations: the extent bytes must reproduce the layout that
// Detach dropped bit-for-bit, or kernels would scan garbage.
func (g *Grouped) Hydrate(blocks []uint8) *Grouped {
	totalBlocks := 0
	if n := len(g.Groups); n > 0 {
		last := g.Groups[n-1]
		totalBlocks = last.BlockStart + last.BlockCount
	}
	if len(blocks) != totalBlocks*g.blockBytes {
		panic(fmt.Sprintf("layout: Hydrate blocks length %d, want %d", len(blocks), totalBlocks*g.blockBytes))
	}
	if !Aligned(blocks) {
		panic("layout: Hydrate blocks not Alignment-aligned")
	}
	ng := *g
	ng.Blocks = blocks
	return &ng
}

// Block returns the i-th packed block, aliasing the backing store.
func (g *Grouped) Block(i int) []uint8 {
	return g.Blocks[i*g.blockBytes : (i+1)*g.blockBytes]
}

// LowNibbles decodes the packed low nibbles of grouped component j
// (j < C) of block i into dst[0:16], one lane per vector.
func (g *Grouped) LowNibbles(i, j int, dst *[BlockVectors]uint8) {
	if j < 0 || j >= g.C {
		panic("layout: LowNibbles is defined for grouped components only")
	}
	src := g.Block(i)[j*8 : j*8+8]
	for k, b := range src {
		dst[2*k] = b & 0x0f
		dst[2*k+1] = b >> 4
	}
}

// FullComponents returns the full bytes of ungrouped component j
// (C <= j < 8) of block i, aliasing the backing store.
func (g *Grouped) FullComponents(i, j int) []uint8 {
	if j < g.C || j >= M {
		panic("layout: FullComponents is defined for ungrouped components only")
	}
	blk := g.Block(i)
	off := g.C*8 + (j-g.C)*16
	return blk[off : off+16]
}

// Code returns the code of the vector at grouped position pos, read
// from its group key and block lane.
func (g *Grouped) Code(pos int) [M]uint8 {
	return g.LaneCode(&g.Groups[g.group(pos)], pos)
}

// LaneCode returns the code of the vector at grouped position pos of
// group grp, which must hold it: Code without the group search.
func (g *Grouped) LaneCode(grp *Group, pos int) [M]uint8 {
	off := pos - grp.Start
	blk := g.Block(grp.BlockStart + off/BlockVectors)
	lane := off % BlockVectors
	var code [M]uint8
	for j := 0; j < g.C; j++ {
		code[j] = grp.Key[j]<<4 | blk[j*8+lane/2]>>(4*uint(lane%2))&0x0f
	}
	for j := g.C; j < M; j++ {
		code[j] = blk[g.C*8+(j-g.C)*16+lane]
	}
	return code
}

// Walker reads a run of grouped positions in order, decoding up to one
// block's rows into row-major codes per step. It searches the group
// directory once, where Code searches it per row: the path of every
// reader that wants many rows.
type Walker struct {
	g       *Grouped
	gi      int // group holding pos
	pos, to int
	buf     [BlockVectors * M]uint8
}

// Walk returns a Walker over grouped positions [from, to).
func (g *Grouped) Walk(from, to int) Walker {
	w := Walker{g: g, pos: from, to: to}
	if from < to {
		w.gi = g.group(from)
	}
	return w
}

// Next decodes the next rows of the run — up to the end of the block
// holding the next position — and returns the position of the first
// and their codes, M bytes a row, valid until the following call. ok is
// false once the run is read.
func (w *Walker) Next() (first int, codes []uint8, ok bool) {
	if w.pos >= w.to {
		return 0, nil, false
	}
	g := w.g
	grp := &g.Groups[w.gi]
	if w.pos == grp.Start+grp.Count {
		w.gi++
		grp = &g.Groups[w.gi]
	}
	off := w.pos - grp.Start
	blk := g.Block(grp.BlockStart + off/BlockVectors)
	lane0 := off % BlockVectors
	n := min(BlockVectors-lane0, grp.Start+grp.Count-w.pos, w.to-w.pos)
	for j := 0; j < g.C; j++ {
		hi, nib := grp.Key[j]<<4, blk[j*8:j*8+8]
		for r := 0; r < n; r++ {
			l := lane0 + r
			w.buf[r*M+j] = hi | nib[l/2]>>(4*uint(l%2))&0x0f
		}
	}
	for j := g.C; j < M; j++ {
		col := blk[g.C*8+(j-g.C)*16:][lane0 : lane0+n]
		for r, b := range col {
			w.buf[r*M+j] = b
		}
	}
	first = w.pos
	w.pos += n
	return first, w.buf[:n*M], true
}

// BlockSize returns the packed block size in bytes for this layout's C.
func (g *Grouped) BlockSize() int { return g.blockBytes }

// PackedBytes returns the memory used by the packed block representation.
func (g *Grouped) PackedBytes() int { return len(g.Blocks) }

// RowMajorBytes returns the memory the same vectors would use
// row-major (8 bytes per vector), the baseline for the §4.2 saving.
func (g *Grouped) RowMajorBytes() int { return g.N * M }

// DirectoryBytes returns the memory of the group directory, the part
// of the layout that stays resident when its blocks are paged out.
func (g *Grouped) DirectoryBytes() int { return len(g.Groups) * int(unsafe.Sizeof(Group{})) }

// MemorySaving returns the fractional reduction of the packed layout over
// row-major storage. With c = 4 and group sizes that are multiples of 16
// it is exactly 25 %; block padding in small groups reduces it.
func (g *Grouped) MemorySaving() float64 {
	return 1 - float64(g.PackedBytes())/float64(g.RowMajorBytes())
}

package layout

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pqfastscan/internal/rng"
)

func randomCodes(n int, seed uint64) []uint8 {
	r := rng.New(seed)
	codes := make([]uint8, n*M)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	return codes
}

// groupedOf puts codes in group-key order with GroupOrder, in a fresh
// array, and builds the layout over it. src[pos] is the input row at
// grouped position pos.
func groupedOf(codes []uint8, c int) (g *Grouped, src []int, err error) {
	n := len(codes) / M
	src = GroupOrder(codes, c)
	if src == nil {
		src = make([]int, n)
		for i := range src {
			src[i] = i
		}
	}
	oc := make([]uint8, 0, len(codes))
	for _, i := range src {
		oc = append(oc, codes[i*M:(i+1)*M]...)
	}
	g, err = NewGrouped(oc, c)
	return g, src, err
}

func TestBlockBytes(t *testing.T) {
	cases := map[int]int{0: 128, 1: 120, 2: 112, 3: 104, 4: 96}
	for c, want := range cases {
		if got := BlockBytes(c); got != want {
			t.Errorf("BlockBytes(%d) = %d, want %d", c, got, want)
		}
	}
	// The paper's headline: 6 bytes per vector at c=4 (§5.8).
	if BlockBytes(4)/BlockVectors != 6 {
		t.Errorf("c=4 packed bytes per vector = %d, want 6", BlockBytes(4)/BlockVectors)
	}
}

func TestAutoComponentsRule(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {100, 0},
		{799, 0}, {800, 1},
		{12799, 1}, {12800, 2},
		{204799, 2}, {204800, 3},
		{3276799, 3}, {3276800, 4},
		{25000000, 4},
	}
	for _, c := range cases {
		if got := AutoComponents(c.n); got != c.want {
			t.Errorf("AutoComponents(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMinPartitionSize(t *testing.T) {
	// nmin(c) = 50·16^c: the paper quotes nmin(4) = 50·16^4 = 3.2768 M,
	// "we target partitions of n = 3.2 - 25 million vectors".
	if MinPartitionSize(4) != 3276800 {
		t.Errorf("nmin(4) = %d, want 3276800", MinPartitionSize(4))
	}
	if MinPartitionSize(0) != 50 {
		t.Errorf("nmin(0) = %d, want 50", MinPartitionSize(0))
	}
}

func TestTransposedRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 100} {
		codes := randomCodes(n, uint64(n+1))
		tr := NewTransposed(codes)
		if tr.N != n {
			t.Fatalf("n=%d: transposed N=%d", n, tr.N)
		}
		full := tr.FullBlocks()
		if full != n/8 {
			t.Fatalf("n=%d: %d full blocks, want %d", n, full, n/8)
		}
		for b := 0; b < full; b++ {
			for j := 0; j < M; j++ {
				comp := tr.Component(b, j)
				for v := 0; v < 8; v++ {
					if comp[v] != codes[(b*8+v)*M+j] {
						t.Fatalf("n=%d block %d comp %d lane %d mismatch", n, b, j, v)
					}
				}
			}
		}
		// Tail must be the original row-major remainder.
		tail := codes[full*8*M:]
		if len(tr.Tail) != len(tail) {
			t.Fatalf("n=%d: tail length %d, want %d", n, len(tr.Tail), len(tail))
		}
		for i := range tail {
			if tr.Tail[i] != tail[i] {
				t.Fatalf("n=%d: tail differs at %d", n, i)
			}
		}
	}
}

func TestGroupedInvariants(t *testing.T) {
	for _, c := range []int{0, 1, 2, 3, 4} {
		codes := randomCodes(3000, uint64(c)*7+1)
		g, src, err := groupedOf(codes, c)
		if err != nil {
			t.Fatal(err)
		}
		if g.N != 3000 || g.C != c {
			t.Fatalf("c=%d: N=%d C=%d", c, g.N, g.C)
		}
		// Codes in grouped order match the original codes by input row,
		// and every group member's high nibbles match the group key.
		total := 0
		for _, grp := range g.Groups {
			total += grp.Count
			for pos := grp.Start; pos < grp.Start+grp.Count; pos++ {
				orig := codes[src[pos]*M : src[pos]*M+M]
				for j := 0; j < M; j++ {
					if g.Code(pos)[j] != orig[j] {
						t.Fatalf("c=%d: grouped code differs from original", c)
					}
				}
				for j := 0; j < c; j++ {
					if g.Code(pos)[j]>>4 != grp.Key[j] {
						t.Fatalf("c=%d: member violates group key", c)
					}
				}
			}
		}
		if total != g.N {
			t.Fatalf("c=%d: groups cover %d of %d vectors", c, total, g.N)
		}
	}
}

// TestGroupedBlockContents: the packed nibble and full-byte block
// sections must decode back to the member codes, with padding only past
// the group count.
func TestGroupedBlockContents(t *testing.T) {
	for _, c := range []int{1, 2, 4} {
		codes := randomCodes(777, uint64(c)+99)
		g, _, err := groupedOf(codes, c)
		if err != nil {
			t.Fatal(err)
		}
		var nib [BlockVectors]uint8
		for _, grp := range g.Groups {
			for b := 0; b < grp.BlockCount; b++ {
				blockIdx := grp.BlockStart + b
				base := grp.Start + b*BlockVectors
				for j := 0; j < c; j++ {
					g.LowNibbles(blockIdx, j, &nib)
					for lane := 0; lane < BlockVectors; lane++ {
						pos := base + lane
						if pos < grp.Start+grp.Count {
							if nib[lane] != g.Code(pos)[j]&0x0f {
								t.Fatalf("c=%d: low nibble mismatch", c)
							}
						} else if nib[lane] != padNibble {
							t.Fatalf("c=%d: padding nibble = %#x", c, nib[lane])
						}
					}
				}
				for j := c; j < M; j++ {
					comps := g.FullComponents(blockIdx, j)
					for lane := 0; lane < BlockVectors; lane++ {
						pos := base + lane
						if pos < grp.Start+grp.Count {
							if comps[lane] != g.Code(pos)[j] {
								t.Fatalf("c=%d: full component mismatch", c)
							}
						} else if comps[lane] != padByte {
							t.Fatalf("c=%d: padding byte = %#x", c, comps[lane])
						}
					}
				}
			}
		}
	}
}

func TestGroupedMemorySaving(t *testing.T) {
	// With c=4 and group sizes that are multiples of 16 the saving is
	// exactly 25% (§4.2). Use identical high nibbles so there is a single
	// group and pad only one block.
	n := 1600
	codes := make([]uint8, n*M)
	r := rng.New(5)
	for i := 0; i < n; i++ {
		for j := 0; j < M; j++ {
			codes[i*M+j] = 0x30 | uint8(r.Intn(16)) // high nibble fixed
		}
	}
	g, _, err := groupedOf(codes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Groups) != 1 {
		t.Fatalf("%d groups, want 1", len(g.Groups))
	}
	if got := g.MemorySaving(); got != 0.25 {
		t.Fatalf("memory saving = %v, want exactly 0.25", got)
	}
	// c=0 stores full bytes in blocks: no saving.
	g0, _, err := groupedOf(codes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g0.MemorySaving() > 0 {
		t.Fatalf("c=0 saving = %v, want <= 0", g0.MemorySaving())
	}
}

func TestGroupedErrors(t *testing.T) {
	codes := randomCodes(10, 1)
	if _, err := NewGrouped(codes, 5); err == nil {
		t.Error("c=5 accepted")
	}
	if _, err := NewGrouped(codes[:9], 2); err == nil {
		t.Error("misaligned codes accepted")
	}
	if GroupOrder(codes, 2) == nil {
		t.Fatal("random codes reported in group-key order")
	}
	if _, err := NewGrouped(codes, 2); err == nil {
		t.Error("codes out of group-key order accepted")
	}
}

func TestGroupedSortedKeys(t *testing.T) {
	// Groups must appear in ascending key order with no duplicates.
	if err := quick.Check(func(seed uint16) bool {
		codes := randomCodes(500, uint64(seed))
		g, _, err := groupedOf(codes, 2)
		if err != nil {
			return false
		}
		prev := int64(-1)
		for _, grp := range g.Groups {
			k := int64(grp.Key[0])<<4 | int64(grp.Key[1])
			if k <= prev {
				return false
			}
			prev = k
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorPanics(t *testing.T) {
	codes := randomCodes(64, 2)
	g, _, err := groupedOf(codes, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nib [BlockVectors]uint8
	for name, fn := range map[string]func(){
		"LowNibbles on ungrouped":     func() { g.LowNibbles(0, 2, &nib) },
		"FullComponents on grouped":   func() { g.FullComponents(0, 1) },
		"FullComponents out of range": func() { g.FullComponents(0, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestGroupedMatchesStableSort: the counting sort of GroupOrder, then
// NewGrouped, produce the layout — group directory, row order, codes, packed
// block bytes — that a stable comparison sort on the group key does
// (the construction it replaced, kept here as the reference ordering,
// with a packer of the test's own), and ordering its run again is the
// identity.
func TestGroupedMatchesStableSort(t *testing.T) {
	for c := 0; c <= MaxGroupComponents; c++ {
		for _, n := range []int{0, 1, 17, 700, 5000} {
			codes := randomCodes(n, uint64(1000+c*10+n))
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			key := func(i int) (k uint32) {
				for j := 0; j < c; j++ {
					k = k<<4 | uint32(codes[i*M+j]>>4)
				}
				return k
			}
			sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })

			var want Grouped
			var wantCodes []uint8
			bb := BlockBytes(c)
			for pos, src := range order {
				code := codes[src*M : (src+1)*M]
				wantCodes = append(wantCodes, code...)
				if pos == 0 || key(src) != key(order[pos-1]) {
					grp := Group{Start: pos, BlockStart: len(want.Blocks) / bb}
					for j := 0; j < c; j++ {
						grp.Key[j] = code[j] >> 4
					}
					want.Groups = append(want.Groups, grp)
				}
				grp := &want.Groups[len(want.Groups)-1]
				lane := grp.Count % BlockVectors
				if lane == 0 {
					want.Blocks = append(want.Blocks, bytes.Repeat([]byte{0xff}, bb)...)
					grp.BlockCount++
				}
				blk := want.Blocks[len(want.Blocks)-bb:]
				for j := 0; j < c; j++ {
					shift := 4 * uint(lane%2)
					blk[j*8+lane/2] = blk[j*8+lane/2]&^(0x0f<<shift) | code[j]&0x0f<<shift
				}
				for j := c; j < M; j++ {
					blk[c*8+(j-c)*16+lane] = code[j]
				}
				grp.Count++
			}

			g, src, err := groupedOf(codes, c)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(g.Groups, want.Groups) || !slices.Equal(src, order) ||
				!bytes.Equal(walked(g), wantCodes) || !bytes.Equal(g.Blocks, want.Blocks) {
				t.Fatalf("c=%d n=%d: layout differs from the stable sort's", c, n)
			}
			if GroupOrder(wantCodes, c) != nil {
				t.Fatalf("c=%d n=%d: ordering an ordered run is not the identity", c, n)
			}
		}
	}
}

// walked returns every row of g in position order, read by a Walker.
func walked(g *Grouped) []uint8 {
	var out []uint8
	w := g.Walk(0, g.N)
	for {
		_, codes, ok := w.Next()
		if !ok {
			return out
		}
		out = append(out, codes...)
	}
}

func TestBlockStorageAlignment(t *testing.T) {
	g, _, err := groupedOf(randomCodes(400, 7), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !Aligned(g.Blocks) {
		t.Fatal("NewGrouped blocks not Alignment-aligned")
	}
	if got := AlignedBytes(10, 100); !Aligned(got) || len(got) != 10 || cap(got) < 100 {
		t.Fatalf("AlignedBytes(10, 100): len=%d cap=%d aligned=%v", len(got), cap(got), Aligned(got))
	}
}

// FuzzGroupedCodes: the packed blocks are the only copy of a grouped
// row's code, so reading it back must give the row that went in — by
// position (Code) and by run (a Walker over all rows and over any
// sub-run), for any rows, any depth c and any count, 0 and counts that
// leave a block part-filled included.
func FuzzGroupedCodes(f *testing.F) {
	f.Add(uint8(2), []byte{}, uint16(0), uint16(0))
	f.Add(uint8(0), randomCodes(17, 1), uint16(3), uint16(17))
	f.Add(uint8(4), make([]byte, 40*M), uint16(15), uint16(33))
	f.Add(uint8(1), randomCodes(300, 2), uint16(16), uint16(299))
	f.Add(uint8(3), append(make([]byte, 20*M), randomCodes(70, 3)...), uint16(0), uint16(90))
	f.Fuzz(func(t *testing.T, c uint8, data []byte, from, to uint16) {
		depth := int(c) % (MaxGroupComponents + 1)
		codes := data[:len(data)/M*M]
		n := len(codes) / M
		g, src, err := groupedOf(codes, depth)
		if err != nil {
			t.Fatal(err)
		}
		row := func(pos int) [M]uint8 { return [M]uint8(codes[src[pos]*M:]) }
		for pos := 0; pos < n; pos++ {
			if got := g.Code(pos); got != row(pos) {
				t.Fatalf("c=%d n=%d: Code(%d) = %v, want %v", depth, n, pos, got, row(pos))
			}
		}
		lo, hi := int(from)%(n+1), int(to)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, span := range [][2]int{{0, n}, {lo, hi}} {
			w, next := g.Walk(span[0], span[1]), span[0]
			for {
				first, run, ok := w.Next()
				if !ok {
					break
				}
				rows := len(run) / M
				if first != next || rows == 0 || rows > BlockVectors || len(run) != rows*M {
					t.Fatalf("c=%d n=%d: walk of [%d,%d) gave %d bytes at %d, want a run at %d", depth, n, span[0], span[1], len(run), first, next)
				}
				for i := 0; i < rows; i++ {
					if got := [M]uint8(run[i*M:]); got != row(first+i) {
						t.Fatalf("c=%d n=%d: walk row %d = %v, want %v", depth, n, first+i, got, row(first+i))
					}
				}
				next += rows
			}
			if next != span[1] {
				t.Fatalf("c=%d n=%d: walk of [%d,%d) stopped at %d", depth, n, span[0], span[1], next)
			}
		}
	})
}

package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/scan"
)

// allocated returns the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// lyingHeader is a complete version-3 header that promises a 2³⁵-float
// codebook and then ends: dim 2³⁰, 2³⁰ partitions, PQ 8×8, subdim 2²⁷
// — all within maxReasonable, and consistent (m·subdim = dim).
func lyingHeader() []byte {
	b := append([]byte(nil), magicPrefix...)
	b = append(b, version)
	for _, v := range []uint32{1 << 30, 1 << 30, 8, 8, 1 << 27} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestRejectsLyingHeader: 28 bytes that size a terabyte of codebook must
// end in an error, having allocated for the bytes present — a reader
// that trusted the header died of an out-of-memory fatal error, which
// no caller can recover from.
func TestRejectsLyingHeader(t *testing.T) {
	data := lyingHeader()
	if len(data) != 28 {
		t.Fatalf("header is %d bytes", len(data))
	}
	var err error
	if n := allocated(func() { _, err = ReadIndex(bytes.NewReader(data)) }); n > 1<<20 {
		t.Fatalf("a 28-byte file cost %d bytes of allocation", n)
	}
	if err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("a header promising more than the file holds: %v, want an EOF error", err)
	}
}

// sections locates the parts of a version-3 file written for ix that the
// tests below patch: where the WAL epoch starts, and where partition
// part's tombstone list starts and how many ids it holds.
func sections(ix *index.Index, data []byte, part int) (walEpoch, dead, nDead int) {
	k, m := ix.PQ.KStar(), ix.PQ.M
	walEpoch = 8 + 20 + 4*k*ix.Dim + 4*ix.Partitions()*ix.Dim + 14 + 8
	off := walEpoch + 8
	le := binary.LittleEndian
	for pi := 0; ; pi++ {
		n := int(le.Uint32(data[off:]))
		off += 4 + n*m + 8*n
		nd := int(le.Uint32(data[off:]))
		if pi == part {
			return walEpoch, off + 4, nd
		}
		off += 4 + 8*nd
	}
}

// fixCRC rewrites the checksum of a file after its body was patched, so
// the reader gets past the CRC to what the patch changed. It leaves
// inputs too short to hold one untouched.
func fixCRC(data []byte) []byte {
	tail := 4 + len(endMagic)
	if len(data) < 8+tail {
		return data
	}
	out := append([]byte(nil), data...)
	sum := crc32.Checksum(out[8:len(out)-tail], castagnoli)
	binary.LittleEndian.PutUint32(out[len(out)-tail:], sum)
	return out
}

// mutatedSmall builds a small index — 600 16-dimensional vectors from
// dataset seed 31 (learn 800, 2 partitions, seed 31) — and gives it
// tombstones in the keep region, the grouped region and the tail of a
// partition.
func mutatedSmall(t testing.TB) *index.Index {
	t.Helper()
	gen := dataset.NewGenerator(dataset.Config{Seed: 31, Dim: 16})
	learn := gen.Generate(800)
	opt := index.DefaultOptions()
	opt.Partitions = 2
	opt.Seed = 31
	ix, err := index.Build(learn, gen.Generate(600), opt)
	if err != nil {
		t.Fatal(err)
	}
	added, err := ix.Add(dataset.NewGenerator(dataset.Config{Seed: 33, Dim: ix.Dim}).Generate(40))
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Parts()[0]
	for _, id := range []int64{p.ID(0), p.ID(p.N / 2), added[len(added)-1]} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestRejectsForeignTombstone: a file whose tombstone list names an id
// its partition does not hold is a load error naming both — loaded, it
// would count one live row too few and make the next compaction report
// one row too many reclaimed.
func TestRejectsForeignTombstone(t *testing.T) {
	ix, _ := buildSmall(t)
	for id := int64(0); id < 8000; id += 97 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, dead, nDead := sections(ix, data, 0)
	if nDead == 0 {
		t.Fatal("partition 0 has no tombstone to patch")
	}
	foreign := ix.Parts()[1].ID(5) // live, and held by partition 1
	binary.LittleEndian.PutUint64(data[dead:], uint64(foreign))
	_, err := ReadIndex(bytes.NewReader(fixCRC(data)))
	if err == nil {
		t.Fatal("a tombstone list naming another partition's id loaded")
	}
	for _, want := range []string{"partition 0", fmt.Sprint(foreign)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// TestRejectsIDBeyondAllocator: a file holding an id at or beyond its
// stored allocator, or a negative one, is a load error naming the
// partition and the id — loaded, the next Add would issue an id that is
// already live.
func TestRejectsIDBeyondAllocator(t *testing.T) {
	ix, _ := buildSmall(t)
	parts := ix.Parts()
	withNeg := slices.Clone(parts)
	negIDs := make([]int64, parts[1].N)
	for i := range negIDs {
		negIDs[i] = parts[1].ID(i)
	}
	negIDs[parts[1].N/2] = -1
	withNeg[1] = scan.NewPartition(parts[1].FlatCodes(), negIDs)

	beyond := index.Restore(ix.Dim, ix.Coarse, ix.PQ, parts, ix.Options(), 5)
	// The file lists rows in the order the restored index holds them, so
	// the first id at or past 5 in that order is the one to name.
	wantPart, wantID := -1, int64(0)
	for c, p := range beyond.Parts() {
		for i := 0; i < p.N && wantPart < 0; i++ {
			if p.ID(i) >= 5 {
				wantPart, wantID = c, p.ID(i)
			}
		}
	}
	for _, tc := range []struct {
		name string
		ix   *index.Index
		part int
		id   int64
	}{
		{"beyond", beyond, wantPart, wantID},
		{"negative", index.Restore(ix.Dim, ix.Coarse, ix.PQ, withNeg, ix.Options(), ix.NextID()), 1, -1},
	} {
		var buf bytes.Buffer
		if err := WriteIndex(&buf, tc.ix); err != nil {
			t.Fatal(err)
		}
		_, err := ReadIndex(&buf)
		if err == nil {
			t.Fatalf("%s: a file holding id %d with next id %d loaded", tc.name, tc.id, tc.ix.NextID())
		}
		for _, want := range []string{fmt.Sprintf("partition %d ", tc.part), fmt.Sprintf("id %d,", tc.id)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}

// spreadIDs returns ix with every row's id multiplied by 4 096 and its
// tombstones gone: ids as sparse as a valid file can hold them, one to
// each range of the Delete routing table.
func spreadIDs(t testing.TB, ix *index.Index) *index.Index {
	t.Helper()
	parts := ix.Parts()
	for c, p := range parts {
		ids := make([]int64, p.N)
		for i := range ids {
			ids[i] = p.ID(i) << 12
		}
		codes := p.FlatCodes()
		parts[c] = scan.NewPartition(codes, ids)
	}
	return index.Restore(ix.Dim, ix.Coarse, ix.PQ, parts, ix.Options(), ix.NextID()<<12)
}

// FuzzReadIndex: any input is an error or a valid index, never a panic,
// and one under 1 MiB never makes the reader allocate more than 64 MiB
// beyond the per-cell table terms of the index it returns (M × k*
// float32 per cell, derived state that a file under a valid checksum
// vouches for). A loaded index deletes its first live id within 1 MiB
// plus 256 bytes a loaded row: the first Delete builds the Delete
// routing table, which must grow with the rows, however far apart
// their ids lie — a seed spreads its ids 4 096 apart, where a table
// with 32 KiB for each range of 4 096 ids holding a live one would
// cost 32 KiB a row. Every input is read twice: as given, and with its
// checksum recomputed, so mutations reach what lies behind the CRC.
// The retired version-1 file, and a version-3 file with its version
// byte set to 2, are seeds that must be refused.
func FuzzReadIndex(f *testing.F) {
	ix := mutatedSmall(f)
	sp := spreadIDs(f, ix)
	var v3, spread bytes.Buffer
	if err := WriteIndex(&v3, ix); err != nil {
		f.Fatal(err)
	}
	if err := WriteIndex(&spread, sp); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(v1File)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		data []byte
		of   *index.Index
	}{{v3.Bytes(), ix}, {spread.Bytes(), sp}} {
		got, err := ReadIndex(bytes.NewReader(seed.data))
		if err != nil {
			f.Fatal(err)
		}
		if got.Live() != seed.of.Live() {
			f.Fatalf("seed loads %d live rows, want %d", got.Live(), seed.of.Live())
		}
		f.Add(seed.data)
	}
	asV2 := slices.Clone(v3.Bytes())
	asV2[7] = 2
	for _, retired := range [][]byte{v1, asV2} {
		if _, err := ReadIndex(bytes.NewReader(retired)); err == nil {
			f.Fatalf("a version %d seed loaded", retired[7])
		}
		f.Add(retired)
	}
	f.Add(lyingHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<20 {
			return
		}
		for _, in := range [][]byte{data, fixCRC(data)} {
			var got *index.Index
			var err error
			n := allocated(func() { got, err = ReadIndex(bytes.NewReader(in)) })
			budget := uint64(64 << 20)
			if err == nil {
				budget += uint64(4 * got.Partitions() * got.PQ.M * got.PQ.KStar())
			}
			if n > budget {
				t.Fatalf("%d-byte input allocated %d bytes", len(in), n)
			}
			if err != nil {
				continue
			}
			total, first := 0, int64(-1)
			for _, p := range got.Parts() {
				for i := 0; i < p.N && first < 0; i++ {
					if !p.DeadAt(i) {
						first = p.ID(i)
					}
				}
				total += p.N
			}
			if live := got.Live(); live < 0 || live > total {
				t.Fatalf("loaded index has %d live rows of %d", live, total)
			}
			q := make([]float32, got.Dim)
			for _, kern := range []index.Kernel{index.KernelNaive, index.KernelLibpq, index.KernelFastScan} {
				got.Query(context.Background(), index.Request{Query: q, K: 3, Kernel: kern, NProbe: got.Partitions()})
			}
			if first < 0 {
				continue
			}
			if n := allocated(func() { err = got.Delete(first) }); n > 1<<20+256*uint64(total) {
				t.Fatalf("deleting id %d of a %d-row index allocated %d bytes", first, total, n)
			}
			if err != nil {
				t.Fatalf("deleting live id %d: %v", first, err)
			}
		}
	})
}

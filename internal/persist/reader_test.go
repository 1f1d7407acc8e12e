package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
)

// allocated returns the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// lyingHeader is a complete version-3 header that promises a 2³⁰-float
// codebook and then ends: dim 2³⁰, 2³⁰ partitions, m 1, bits 8, subdim
// 2³⁰ — all within maxReasonable, and consistent (m·subdim = dim).
func lyingHeader() []byte {
	b := append([]byte(nil), magicPrefix...)
	b = append(b, version3)
	for _, v := range []uint32{1 << 30, 1 << 30, 1, 8, 1 << 30} {
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
	if err == nil {
		t.Fatal("a header promising more than the file holds loaded")
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

// fixCRC rewrites the checksum of a file of any version after its body
// was patched, so the reader gets past the CRC to what the patch
// changed. It leaves inputs too short to hold one untouched.
func fixCRC(data []byte) []byte {
	if len(data) < 8 {
		return data
	}
	out := append([]byte(nil), data...)
	tail := 4
	if out[7] >= version3 {
		tail += len(endMagic)
	}
	if len(out) < 8+tail {
		return data
	}
	body := out[8 : len(out)-tail]
	h := crcFor(out[7])
	h.Write(body)
	binary.LittleEndian.PutUint32(out[len(out)-tail:], h.Sum32())
	return out
}

// toV2 rewrites a version-3 file of ix as the version-2 file of the same
// index: no WAL epoch, a CRC-32 (IEEE) and no end magic.
func toV2(ix *index.Index, v3 []byte) []byte {
	walEpoch, _, _ := sections(ix, v3, 0)
	out := append(append([]byte(nil), v3[:walEpoch]...), v3[walEpoch+8:len(v3)-4-len(endMagic)]...)
	out[7] = version2
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[8:]))
}

// mutatedV1 loads the frozen version-1 index and gives it tombstones in
// the keep region, the grouped region and the tail of a partition, with
// its Fast Scan layouts built first, as a serving index has them.
func mutatedV1(t testing.TB) *index.Index {
	t.Helper()
	ix, err := LoadIndex(v1File)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < ix.Partitions(); c++ {
		if _, err := ix.FastScanner(c); err != nil {
			t.Fatal(err)
		}
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

// FuzzReadIndex: any input is an error or a valid index, never a panic,
// and one under 1 MiB never makes the reader allocate more than 64 MiB
// beyond the per-cell table terms of the index it returns (M × k*
// float32 per cell, derived state that a file under a valid checksum
// vouches for). Every input is read twice: as given, and with its
// checksum recomputed, so mutations reach what lies behind the CRC.
func FuzzReadIndex(f *testing.F) {
	ix := mutatedV1(f)
	var v3 bytes.Buffer
	if err := WriteIndex(&v3, ix); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(v1File)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v3.Bytes(), toV2(ix, v3.Bytes()), v1} {
		got, err := ReadIndex(bytes.NewReader(seed))
		if err != nil {
			f.Fatalf("version %d seed: %v", seed[7], err)
		}
		if seed[7] != 1 && got.Live() != ix.Live() {
			f.Fatalf("version %d seed loads %d live rows, want %d", seed[7], got.Live(), ix.Live())
		}
		f.Add(seed)
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
			total := 0
			for _, p := range got.Parts() {
				total += p.N
			}
			if live := got.Live(); live < 0 || live > total {
				t.Fatalf("loaded index has %d live rows of %d", live, total)
			}
			q := make([]float32, got.Dim)
			for _, kern := range []index.Kernel{index.KernelNaive, index.KernelLibpq, index.KernelFastScan} {
				got.Query(context.Background(), index.Request{Query: q, K: 3, Kernel: kern, NProbe: got.Partitions()})
			}
		}
	})
}

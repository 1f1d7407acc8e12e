package extent

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pqfastscan/internal/fsio"
	"pqfastscan/internal/layout"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(fsio.OS, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip writes a multi-section extent and reads it back,
// checking section contents, payload page alignment on disk, and
// 64-byte alignment of every section in memory.
func TestRoundTrip(t *testing.T) {
	s := openStore(t)
	var b Builder
	codes := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 100) // 700 bytes, unaligned length
	ids := []uint32{10, 1 << 31, 1<<32 - 1}
	b.Add("codes", codes)
	b.Add("ids", Uint32Bytes(ids))
	b.Add("empty", nil)

	n, err := s.Write("i1-p0-e1", &b)
	if err != nil {
		t.Fatal(err)
	}
	if want := b.PayloadBytes(); n != want {
		t.Fatalf("Write returned %d payload bytes, PayloadBytes says %d", n, want)
	}

	// On-disk: header page then payload then end magic.
	raw, err := os.ReadFile(filepath.Join(s.Dir(), "i1-p0-e1"+Suffix))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != PageSize+n+8 {
		t.Fatalf("file size %d, want %d", len(raw), PageSize+n+8)
	}
	if !bytes.Equal(raw[PageSize:PageSize+len(codes)], codes) {
		t.Fatal("payload does not start at the page boundary")
	}

	p, err := s.Read("i1-p0-e1")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.Section("codes")
	if !ok || !bytes.Equal(got, codes) {
		t.Fatalf("codes section mismatch (ok=%v)", ok)
	}
	if !layout.Aligned(got) {
		t.Fatal("codes section not 64-byte aligned")
	}
	idsGot, ok := p.Section("ids")
	if !ok {
		t.Fatal("ids section missing")
	}
	if !layout.Aligned(idsGot) {
		t.Fatal("ids section not 64-byte aligned")
	}
	back := BytesUint32(idsGot)
	for i, v := range ids {
		if back[i] != v {
			t.Fatalf("ids[%d] = %d, want %d", i, back[i], v)
		}
	}
	if e, ok := p.Section("empty"); !ok || len(e) != 0 {
		t.Fatalf("empty section: %v %v", e, ok)
	}
	if _, ok := p.Section("nope"); ok {
		t.Fatal("phantom section")
	}
}

// TestCorruptionDetected flips payload bytes and truncates the file;
// both must fail the read with CRC / end-magic errors rather than
// return garbage to the scan path.
func TestCorruptionDetected(t *testing.T) {
	s := openStore(t)
	var b Builder
	b.Add("data", bytes.Repeat([]byte{0xab}, 1000))
	if _, err := s.Write("x", &b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "x"+Suffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte.
	bad := append([]byte(nil), raw...)
	bad[PageSize+17] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("x"); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted payload read: err=%v, want CRC mismatch", err)
	}

	// Truncate mid-payload.
	if err := os.WriteFile(path, raw[:PageSize+100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("x"); err == nil {
		t.Fatal("truncated extent read succeeded")
	}

	// Bad magic.
	bad = append([]byte(nil), raw...)
	bad[0] = 'X'
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("x"); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad-magic read: err=%v", err)
	}
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fixCRC returns a copy of an extent file with the payload CRC its
// header declares recomputed over the payload the header sizes, or data
// itself when the header cannot be walked that far.
func fixCRC(data []byte) []byte {
	if len(data) < PageSize {
		return data
	}
	pos := 12
	for i := 0; i < int(binary.LittleEndian.Uint32(data[8:])); i++ {
		if pos >= PageSize {
			return data
		}
		pos += 1 + int(data[pos]) + 16
	}
	if pos+12 > PageSize {
		return data
	}
	n := binary.LittleEndian.Uint64(data[pos:])
	if n > uint64(len(data)-PageSize) {
		return data
	}
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[pos+8:], crc32.Checksum(out[PageSize:PageSize+int(n)], castagnoli))
	return out
}

// FuzzReadExtent: Store.Read of any file is an error or a payload whose
// every section lies inside the payload buffer on a 64-byte boundary,
// never a panic, and reading a file allocates at most a fixed amount
// beyond twice its size. Every input is read twice: as given, and with
// its payload CRC recomputed, so mutations reach what lies behind the
// checksum. Seeds are the round-trip tests' extents.
func FuzzReadExtent(f *testing.F) {
	s, err := Open(fsio.OS, f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "x"+Suffix)
	var roundTrip, corrupt, tiny Builder
	roundTrip.Add("codes", bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 100))
	roundTrip.Add("ids", Uint32Bytes([]uint32{10, 1 << 31, 1<<32 - 1}))
	roundTrip.Add("empty", nil)
	corrupt.Add("data", bytes.Repeat([]byte{0xab}, 1000))
	tiny.Add("d", []byte{1})
	for _, b := range []*Builder{&roundTrip, &corrupt, &tiny, {}} {
		if _, err := s.Write("x", b); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<20 {
			return
		}
		for _, in := range [][]byte{data, fixCRC(data)} {
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			var p *Payload
			var err error
			if n := allocated(func() { p, err = s.Read("x") }); n > 1<<20+2*uint64(len(in)) {
				t.Fatalf("%d-byte file allocated %d bytes", len(in), n)
			}
			if err != nil {
				continue
			}
			if !layout.Aligned(p.Bytes()) {
				t.Fatal("payload buffer not 64-byte aligned")
			}
			for name, sp := range p.sections {
				if sp.off%SectionAlign != 0 || sp.off > int64(len(p.buf)) || sp.len > int64(len(p.buf))-sp.off {
					t.Fatalf("section %q at [%d, +%d) of a %d-byte payload", name, sp.off, sp.len, len(p.buf))
				}
				if sec, _ := p.Section(name); !layout.Aligned(sec) {
					t.Fatalf("section %q not 64-byte aligned", name)
				}
			}
		}
	})
}

// TestSweepOrphans checks that attach-time sweeping removes in-flight
// temp files and dead extents while keeping live ones.
func TestSweepOrphans(t *testing.T) {
	s := openStore(t)
	var b Builder
	b.Add("d", []byte{1})
	for _, name := range []string{"live", "dead"} {
		if _, err := s.Write(name, &b); err != nil {
			t.Fatal(err)
		}
	}
	tmp := filepath.Join(s.Dir(), TempPrefix+"orphan")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := s.SweepOrphans(func(name string) bool { return name == "live" })
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want temp orphan + dead extent", removed)
	}
	if _, err := s.Read("live"); err != nil {
		t.Fatalf("live extent swept: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp orphan survived")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "dead"+Suffix)); !os.IsNotExist(err) {
		t.Fatal("dead extent survived")
	}

	// Remove is idempotent: removing an already-swept extent is fine.
	if err := s.Remove("dead"); err != nil {
		t.Fatalf("Remove of missing extent: %v", err)
	}
}

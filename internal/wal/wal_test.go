package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pqfastscan/internal/fsio"
)

// collect replays a segment into a flat record slice.
func collect(t *testing.T, path string) ([]*Record, ReplayResult) {
	t.Helper()
	var recs []*Record
	res, err := Replay(fsio.OS, path, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, res
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells := []int{2, 0, 2}
	ids := []int64{100, 101, 102}
	codes := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if err := l.AppendAdd(cells, ids, codes, 4); err != nil {
		t.Fatalf("AppendAdd: %v", err)
	}
	if err := l.AppendDelete(101); err != nil {
		t.Fatalf("AppendDelete: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, res := collect(t, SegmentPath(dir, 7))
	if res.Epoch != 7 || res.Truncated || res.Records != 2 {
		t.Fatalf("replay result %+v, want epoch 7, 2 records, no truncation", res)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	add := recs[0]
	if add.Type != RecordAdd || add.M != 4 {
		t.Fatalf("record 0: %+v", add)
	}
	for i := range cells {
		if add.Cells[i] != cells[i] || add.IDs[i] != ids[i] {
			t.Fatalf("add row %d: cell %d id %d, want %d %d", i, add.Cells[i], add.IDs[i], cells[i], ids[i])
		}
	}
	for i := range codes {
		if add.Codes[i] != codes[i] {
			t.Fatalf("add code byte %d: %d != %d", i, add.Codes[i], codes[i])
		}
	}
	if recs[1].Type != RecordDelete || recs[1].ID != 101 {
		t.Fatalf("record 1: %+v", recs[1])
	}
}

func TestTornTailTruncatedAtLastGoodFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 5; id++ {
		if err := l.AppendDelete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := SegmentPath(dir, 1)
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: a frame header promising more payload than
	// the crash left behind.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [11]byte
	binary.LittleEndian.PutUint32(torn[0:], 9) // claims 9 payload bytes, delivers 3
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, res := collect(t, path)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records past a torn tail, want 5", len(recs))
	}
	if !res.Truncated || res.GoodBytes != good.Size() || res.TornBytes != int64(len(torn)) {
		t.Fatalf("replay result %+v, want truncation at %d cutting %d bytes", res, good.Size(), len(torn))
	}
	if st, _ := os.Stat(path); st.Size() != good.Size() {
		t.Fatalf("file not truncated: %d bytes, want %d", st.Size(), good.Size())
	}

	// A second replay of the truncated file sees the identical record
	// stream with nothing left to cut.
	recs2, res2 := collect(t, path)
	if len(recs2) != 5 || res2.Truncated {
		t.Fatalf("re-replay: %d records, truncated=%v", len(recs2), res2.Truncated)
	}
}

func TestTornCRCTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete(1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := SegmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // corrupt the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, res := collect(t, path)
	if len(recs) != 1 || !res.Truncated {
		t.Fatalf("got %d records, truncated=%v; want the corrupt record cut", len(recs), res.Truncated)
	}
	if recs[0].ID != 1 {
		t.Fatalf("surviving record id %d, want 1", recs[0].ID)
	}
}

func TestShortHeaderReplaysEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0000000000000003.log")
	if err := os.WriteFile(path, []byte("PQFS"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, path)
	if len(recs) != 0 || !res.Truncated {
		t.Fatalf("short-header segment: %d records, truncated=%v", len(recs), res.Truncated)
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0000000000000001.log")
	if err := os.WriteFile(path, []byte("NOTAWAL0epoch..."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(fsio.OS, path, func(*Record) error { return nil }); err == nil {
		t.Fatal("replay of a non-WAL file succeeded")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.AppendDelete(int64(w*each + i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Records != writers*each {
		t.Fatalf("recorded %d records, want %d", st.Records, writers*each)
	}
	// Group commit's whole point: concurrent appenders share fsyncs. With 8 writers racing, leaders must have covered followers
	// at least sometimes.
	if st.Fsyncs >= st.Records {
		t.Fatalf("%d fsyncs for %d records: group commit never batched", st.Fsyncs, st.Records)
	}
	recs, _ := collect(t, SegmentPath(dir, 1))
	if len(recs) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*each)
	}
}

func TestRotateStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(2); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if got := l.Epoch(); got != 2 {
		t.Fatalf("epoch after rotate: %d", got)
	}
	if err := l.AppendDelete(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Epoch != 1 || segs[1].Epoch != 2 {
		t.Fatalf("segments: %+v", segs)
	}
	for i, want := range []int64{1, 2} {
		recs, res := collect(t, segs[i].Path)
		if res.Epoch != segs[i].Epoch || len(recs) != 1 || recs[0].ID != want {
			t.Fatalf("segment %d: epoch %d, %d records", i, res.Epoch, len(recs))
		}
	}
}

// failSyncFile makes the Nth fsync fail.
type failSyncFile struct {
	fsio.File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	f.fs.syncs++
	if f.fs.syncs == f.fs.failAt {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

type failSyncFS struct {
	fsio.FS
	syncs  int
	failAt int
}

func (fs *failSyncFS) Create(name string) (fsio.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: f, fs: fs}, nil
}

func TestFsyncErrorSurfacedAndSticky(t *testing.T) {
	dir := t.TempDir()
	ffs := &failSyncFS{FS: fsio.OS, failAt: 2} // fsync 1 is the header
	l, err := Create(dir, 1, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete(1); err == nil {
		t.Fatal("append acknowledged through a failed fsync")
	}
	// The log is poisoned: no later append may be acknowledged either,
	// because its record would sit after an unsynced horizon.
	if err := l.AppendDelete(2); err == nil {
		t.Fatal("append after a failed fsync succeeded")
	}
	l.Close()
}

func TestAppendShapeValidation(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendAdd([]int{1}, []int64{1, 2}, []byte{0}, 1); err == nil {
		t.Fatal("mismatched cells/ids accepted")
	}
	if err := l.AppendAdd([]int{1}, []int64{1}, []byte{0}, 2); err == nil {
		t.Fatal("mismatched code width accepted")
	}
}

func TestSegmentsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.idx", "wal-zz.log", "wal-1.txt", "notes"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Create(dir, 42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, err := Segments(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Epoch != 42 {
		t.Fatalf("segments: %+v", segs)
	}
}

func TestReplayAbortsOnApplyError(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.AppendDelete(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	wantErr := fmt.Errorf("apply failed")
	n := 0
	_, err = Replay(fsio.OS, SegmentPath(dir, 1), func(*Record) error {
		n++
		if n == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("replay error %v, want the apply error", err)
	}
}

// allocated returns the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// withFrameCRCs returns a copy of a segment with the CRC of every whole
// frame recomputed, so a fuzzed payload reaches the record decoder.
func withFrameCRCs(seg []byte) []byte {
	out := bytes.Clone(seg)
	le := binary.LittleEndian
	for off := headerLen; off+frameLen <= len(out); {
		n := int(le.Uint32(out[off:]))
		if n > len(out)-off-frameLen {
			break
		}
		le.PutUint32(out[off+4:], crc32.Checksum(out[off+frameLen:off+frameLen+n], castagnoli))
		off += frameLen + n
	}
	return out
}

// FuzzReplay: any segment replays to its records, or to them and a
// torn-tail truncation at the end of the last good frame — an error
// only for a bad magic or a frame whose CRC checks but whose record
// does not decode — and never panics. Replay allocates no more than its
// 1 MiB read buffer and a few times the bytes present, whatever a frame
// header claims: the 24-byte seed, a header and one frame header that
// claims 2³⁰ bytes, once allocated all of them. A truncated segment
// replays again to the same records with nothing left to cut. Every
// input is replayed twice: as given, and with its frame CRCs recomputed.
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	l, err := Create(dir, 7, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.AppendAdd([]int{2, 0, 2}, []int64{100, 101, 102}, bytes.Repeat([]byte{1, 2, 3, 4}, 3), 4); err != nil {
		f.Fatal(err)
	}
	if err := l.AppendDelete(101); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(SegmentPath(dir, 7))
	if err != nil {
		f.Fatal(err)
	}
	claim := binary.LittleEndian.AppendUint32(nil, maxFrame)
	f.Add(seg)
	f.Add(append(bytes.Clone(seg), 9, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3)) // torn tail
	f.Add(append(append(bytes.Clone(seg[:headerLen]), claim...), 0, 0, 0, 0))
	f.Add(seg[:headerLen-3])

	path := filepath.Join(dir, "fuzz.log")
	replay := func() ([]*Record, ReplayResult, error) {
		var recs []*Record
		res, err := Replay(fsio.OS, path, func(r *Record) error {
			recs = append(recs, r)
			return nil
		})
		return recs, res, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<20 {
			return
		}
		for _, in := range [][]byte{data, withFrameCRCs(data)} {
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			var recs []*Record
			var res ReplayResult
			var err error
			if n := allocated(func() { recs, res, err = replay() }); n > 2<<20+8*uint64(len(in)) {
				t.Fatalf("%d-byte segment allocated %d bytes", len(in), n)
			}
			if err != nil {
				continue
			}
			st, serr := os.Stat(path)
			if serr != nil {
				t.Fatal(serr)
			}
			if res.Records != len(recs) || st.Size() != res.GoodBytes ||
				!res.Truncated && st.Size() != int64(len(in)) {
				t.Fatalf("%d-byte segment: result %+v with %d records, file left at %d bytes", len(in), res, len(recs), st.Size())
			}
			again, res2, err := replay()
			if err != nil || res2.Truncated || !reflect.DeepEqual(again, recs) {
				t.Fatalf("re-replay of a %d-byte segment: %d records (had %d), %+v, %v", st.Size(), len(again), len(recs), res2, err)
			}
		}
	})
}

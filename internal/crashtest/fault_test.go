package crashtest

import (
	"errors"
	"path/filepath"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/fsio"
	"pqfastscan/internal/index"
	"pqfastscan/internal/persist"
	"pqfastscan/internal/wal"
)

func buildSmall(t *testing.T) *index.Index {
	t.Helper()
	gen := dataset.NewGenerator(dataset.Config{Seed: 91, Dim: 32})
	opt := index.DefaultOptions()
	opt.Partitions = 3
	opt.Seed = 91
	ix, err := index.Build(gen.Generate(1500), gen.Generate(4000), opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// capture takes a Capture of a RAM-resident test index, failing the
// test on the (impossible there) paged read error.
func capture(t *testing.T, ix *index.Index) index.Capture {
	t.Helper()
	c, err := ix.Capture()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSnapshotWriteFailureLeavesOldSnapshotIntact: a failed SaveCapture
// must surface the injected error and leave the previous snapshot
// byte-for-byte loadable — the write-temp-then-rename discipline.
func TestSnapshotWriteFailureLeavesOldSnapshotIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.idx")
	ix := buildSmall(t)
	ffs := NewFaultFS(fsio.OS)

	if err := persist.SaveCapture(ffs, path, capture(t, ix), 7); err != nil {
		t.Fatal(err)
	}
	liveBefore := ix.Live()

	ffs.FailWriteAt(1)
	if err := persist.SaveCapture(ffs, path, capture(t, ix), 8); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed save surfaced %v, want the injected write fault", err)
	}
	ffs.Reset()

	loaded, epoch, err := persist.LoadIndexEpoch(fsio.OS, path)
	if err != nil {
		t.Fatalf("old snapshot unloadable after failed overwrite: %v", err)
	}
	if epoch != 7 || loaded.Live() != liveBefore {
		t.Fatalf("old snapshot changed: epoch %d live %d, want 7/%d", epoch, loaded.Live(), liveBefore)
	}
}

// TestSnapshotFsyncFailureSurfaced: an fsync error during SaveCapture
// fails the save before the rename — the caller learns the snapshot is
// not durable, and the old one survives.
func TestSnapshotFsyncFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.idx")
	ix := buildSmall(t)
	ffs := NewFaultFS(fsio.OS)

	if err := persist.SaveCapture(ffs, path, capture(t, ix), 3); err != nil {
		t.Fatal(err)
	}
	syncsPerSave := ffs.Syncs()
	if syncsPerSave < 2 {
		t.Fatalf("save ran %d fsyncs, want at least temp-file + directory", syncsPerSave)
	}
	ffs.Reset()

	ffs.FailSyncAt(1)
	if err := persist.SaveCapture(ffs, path, capture(t, ix), 4); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed fsync surfaced %v, want the injected fault", err)
	}
	ffs.Reset()
	if _, epoch, err := persist.LoadIndexEpoch(fsio.OS, path); err != nil || epoch != 3 {
		t.Fatalf("snapshot after failed fsync: epoch %d err %v, want the epoch-3 original", epoch, err)
	}
}

// TestWALFsyncErrorFailsTheAppend: an fsync error must fail the append
// that requested it — never acknowledge data the disk did not confirm —
// and poison the log for later appends.
func TestWALFsyncErrorFailsTheAppend(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(fsio.OS)
	log, err := wal.Create(dir, 1, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	if err := log.AppendDelete(1); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncAt(ffs.Syncs() + 1)
	if err := log.AppendDelete(2); !errors.Is(err, ErrInjected) {
		t.Fatalf("append with failing fsync returned %v, want the injected fault", err)
	}
	ffs.Reset()
	if err := log.AppendDelete(3); err == nil {
		t.Fatal("log accepted an append after an fsync failure (poisoning lost)")
	}
}

// TestWALShortWriteLeavesTornTailThatReplayTruncates: a write torn
// mid-frame (as a crash mid-write leaves it) fails the append, and
// replay later truncates the torn tail back to the last good frame.
func TestWALShortWriteLeavesTornTailThatReplayTruncates(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(fsio.OS)
	log, err := wal.Create(dir, 1, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}

	for id := int64(1); id <= 3; id++ {
		if err := log.AppendDelete(id); err != nil {
			t.Fatal(err)
		}
	}
	ffs.ShortWriteAt(ffs.Writes() + 1)
	if err := log.AppendDelete(4); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write returned %v, want the injected fault", err)
	}
	log.Close()
	ffs.Reset()

	var ids []int64
	res, err := wal.Replay(fsio.OS, wal.SegmentPath(dir, 1), func(r *wal.Record) error {
		ids = append(ids, r.ID)
		return nil
	})
	if err != nil {
		t.Fatalf("replay over torn tail: %v", err)
	}
	if !res.Truncated || res.TornBytes == 0 {
		t.Fatalf("replay did not truncate the torn tail: %+v", res)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("replayed records %v, want the 3 complete deletes", ids)
	}

	// After truncation the segment replays clean.
	res2, err := wal.Replay(fsio.OS, wal.SegmentPath(dir, 1), func(*wal.Record) error { return nil })
	if err != nil || res2.Truncated {
		t.Fatalf("second replay: %+v err %v, want clean", res2, err)
	}
}

// TestWALWriteErrorNeverAcks: a failed frame write fails the append.
func TestWALWriteErrorNeverAcks(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(fsio.OS)
	log, err := wal.Create(dir, 1, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ffs.FailWriteAt(ffs.Writes() + 1)
	if err := log.AppendDelete(1); !errors.Is(err, ErrInjected) {
		t.Fatalf("append with failing write returned %v, want the injected fault", err)
	}
}

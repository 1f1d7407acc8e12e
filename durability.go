// Crash-safe durability for online mutations (DESIGN.md §14). A durable
// Index pairs a snapshot file with a write-ahead log in one directory:
// every acknowledged Add/AddBatch/Delete is appended to the log and
// fsynced before the call returns (there is no mode that acknowledges a
// mutation before it is on disk), and Recover rebuilds the exact
// acknowledged state by replaying the log over the latest snapshot.
// Checkpoint bounds replay time by rotating the log and persisting a
// fresh snapshot; the snapshot is stamped with the epoch of the log
// segment opened at the same instant, so every record is replayed
// exactly once.
package pqfastscan

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"pqfastscan/internal/fsio"
	"pqfastscan/internal/index"
	"pqfastscan/internal/persist"
	"pqfastscan/internal/wal"
)

// SnapshotFileName is the name of the snapshot file inside a durable
// directory (the WAL segments live next to it).
const SnapshotFileName = "snapshot.idx"

// WALStats describes a durable index's write-ahead log for monitoring.
type WALStats struct {
	Epoch      uint64  `json:"epoch"`
	Bytes      int64   `json:"bytes"`
	Records    int64   `json:"records"`
	Fsyncs     int64   `json:"fsyncs"`
	FsyncP50Ms float64 `json:"fsync_p50_ms"`
	FsyncP99Ms float64 `json:"fsync_p99_ms"`
	// Replayed and ReplayMs are the log records the Recover that opened
	// this index re-applied, one by one, and the time that took (zero
	// when it was opened by WithWAL): recovery's replay rate.
	Replayed int64   `json:"replayed"`
	ReplayMs float64 `json:"replay_ms"`
}

// durState is the durability side of a façade handle. It survives Swap:
// the log belongs to the handle, not to any one snapshot, so a hot
// snapshot swap keeps logging into the same directory (the serving
// layer checkpoints immediately after a swap to make it durable).
type durState struct {
	dir string

	// mu orders mutations against checkpoints: Add/Delete hold it
	// shared for the log-append + apply pair, Checkpoint holds it
	// exclusively for the capture + rotate pair. That pairing is the
	// whole correctness story — every mutation lands entirely in the
	// segment before the rotation (and in the captured snapshot) or
	// entirely after (and in the new segment), never split.
	mu sync.RWMutex
	// ckptMu serializes whole checkpoints (the save + cleanup runs
	// outside mu so mutations resume during the snapshot write).
	ckptMu sync.Mutex

	log *wal.Log

	// What the Recover that built this state replayed (WALStats).
	replayed  int64
	replayDur time.Duration
}

func (d *durState) snapshotPath() string { return filepath.Join(d.dir, SnapshotFileName) }

// HasDurable reports whether dir holds durable state (a snapshot to
// recover from). Serving layers use it to decide between Recover and a
// fresh WithWAL boot.
func HasDurable(dir string) bool {
	_, err := fsio.OS.Stat(filepath.Join(dir, SnapshotFileName))
	return err == nil
}

// WithWAL makes this index durable: it persists the current state as
// the epoch-1 snapshot in dir (created if needed) and opens the epoch-1
// log segment, so every subsequent mutation through this handle is
// logged before it is acknowledged. It refuses a directory that already
// holds durable state — recovering it is Recover's job, and silently
// overwriting it would discard acknowledged mutations.
func (ix *Index) WithWAL(dir string) error {
	if ix.dur.Load() != nil {
		return fmt.Errorf("pqfastscan: WAL already enabled on this index")
	}
	if err := fsio.OS.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pqfastscan: creating wal directory: %w", err)
	}
	if HasDurable(dir) {
		return fmt.Errorf("pqfastscan: %s already holds durable state; use Recover", dir)
	}
	const epoch = 1
	d := &durState{dir: dir}
	cap, err := ix.load().Capture()
	if err != nil {
		return fmt.Errorf("pqfastscan: capturing for initial snapshot: %w", err)
	}
	serr := persist.SaveCapture(fsio.OS, d.snapshotPath(), cap, epoch)
	cap.Release()
	if serr != nil {
		return serr
	}
	log, err := wal.Create(dir, epoch, wal.Options{})
	if err != nil {
		return err
	}
	d.log = log
	if !ix.dur.CompareAndSwap(nil, d) {
		log.Close()
		return fmt.Errorf("pqfastscan: WAL already enabled on this index")
	}
	return nil
}

// Recover rebuilds a durable index from dir: it loads the snapshot
// (rejecting a truncated or corrupt file), replays every log segment
// whose epoch is at or past the snapshot's stamp — truncating a torn
// tail at the last intact record — and finishes with a fresh checkpoint
// so the next crash replays only what comes after this recovery. The
// returned index is durable (logging into dir) and contains exactly the
// acknowledged state of the crashed process.
//
// Recovery is idempotent: adds whose ids are already present are
// skipped and deletes of absent ids are tolerated, so replaying a log
// twice (a crash during recovery's own checkpoint) converges to the
// same index.
func Recover(dir string) (*Index, error) {
	path := filepath.Join(dir, SnapshotFileName)
	in, snapEpoch, err := persist.LoadIndexEpoch(fsio.OS, path)
	if err != nil {
		return nil, fmt.Errorf("pqfastscan: recovering snapshot: %w", err)
	}
	segs, err := wal.Segments(fsio.OS, dir)
	if err != nil {
		return nil, fmt.Errorf("pqfastscan: recovering: %w", err)
	}

	// Every id the snapshot holds, tombstoned rows included: replayed
	// adds of these ids were already captured and must not re-apply.
	// The freshly loaded index is RAM-resident, so Capture cannot fail
	// and Release is a no-op, but keep the discipline uniform.
	icap, err := in.Capture()
	if err != nil {
		return nil, fmt.Errorf("pqfastscan: recovering: %w", err)
	}
	seen := make(map[int64]bool)
	for _, p := range icap.Parts {
		for i := 0; i < p.N; i++ {
			seen[p.ID(i)] = true
		}
	}
	icap.Release()

	maxEpoch := snapEpoch
	var replayed int64
	replayStart := time.Now()
	for _, seg := range segs {
		if seg.Epoch < snapEpoch {
			// Superseded by the snapshot — a checkpoint that crashed
			// between saving and deleting old segments leaves these.
			continue
		}
		if seg.Epoch > maxEpoch {
			maxEpoch = seg.Epoch
		}
		_, err := wal.Replay(fsio.OS, seg.Path, func(r *wal.Record) error {
			replayed++
			return applyRecord(in, r, seen)
		})
		if err != nil {
			return nil, fmt.Errorf("pqfastscan: replaying %s: %w", seg.Path, err)
		}
	}

	replayDur := time.Since(replayStart)

	// Fresh checkpoint: open the next segment, persist the recovered
	// state stamped with it, then drop the replayed segments. Each step
	// is crash-safe — dying before the snapshot save re-replays the old
	// segments (idempotent), dying after it skips them by epoch.
	next := maxEpoch + 1
	log, err := wal.Create(dir, next, wal.Options{})
	if err != nil {
		return nil, err
	}
	d := &durState{dir: dir, log: log, replayed: replayed, replayDur: replayDur}
	rcap, err := in.Capture()
	if err != nil {
		log.Close()
		return nil, err
	}
	serr := persist.SaveCapture(fsio.OS, path, rcap, next)
	rcap.Release()
	if serr != nil {
		log.Close()
		return nil, serr
	}
	if err := removeSegmentsBefore(dir, next); err != nil {
		log.Close()
		return nil, err
	}
	// Attach after the recovery checkpoint: the snapshot write above ran
	// over RAM-resident partitions, and from here on the index serves
	// (and checkpoints) through the paging stack like any other.
	if err := autoAttach(in); err != nil {
		log.Close()
		return nil, err
	}
	ix := newIndex(in)
	ix.dur.Store(d)
	return ix, nil
}

// applyRecord applies one replayed record to in. seen carries every id
// already applied (snapshot or earlier records) for idempotence.
func applyRecord(in *index.Index, r *wal.Record, seen map[int64]bool) error {
	switch r.Type {
	case wal.RecordAdd:
		m := r.M
		if m != in.PQ.M {
			return fmt.Errorf("log record has %d-byte codes, index uses %d (geometry changed without a checkpoint?)", m, in.PQ.M)
		}
		cells := make([]int, 0, len(r.IDs))
		ids := make([]int64, 0, len(r.IDs))
		codes := make([]uint8, 0, len(r.Codes))
		for i, id := range r.IDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			cells = append(cells, r.Cells[i])
			ids = append(ids, id)
			codes = append(codes, r.Codes[i*m:(i+1)*m]...)
		}
		if len(ids) == 0 {
			return nil
		}
		return in.ApplyAdd(cells, ids, codes)
	case wal.RecordDelete:
		if err := in.Delete(r.ID); err != nil && !errors.Is(err, index.ErrNotFound) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
}

func removeSegmentsBefore(dir string, epoch uint64) error {
	segs, err := wal.Segments(fsio.OS, dir)
	if err != nil {
		return err
	}
	removed := false
	for _, s := range segs {
		if s.Epoch >= epoch {
			continue
		}
		if err := fsio.OS.Remove(s.Path); err != nil {
			return fmt.Errorf("pqfastscan: removing checkpointed segment: %w", err)
		}
		removed = true
	}
	if removed {
		return fsio.OS.SyncDir(dir)
	}
	return nil
}

// Checkpoint persists the current state as a new snapshot and truncates
// the log: mutations are paused only for the capture + log rotation (an
// atomic-load plus one file creation), then resume while the snapshot
// writes in the background of the call. After a successful Checkpoint,
// recovery replay covers only mutations acknowledged since it.
func (ix *Index) Checkpoint() error {
	d := ix.dur.Load()
	if d == nil {
		return fmt.Errorf("pqfastscan: Checkpoint on an index without a WAL")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	d.mu.Lock()
	cap, cerr := ix.load().Capture()
	if cerr != nil {
		d.mu.Unlock()
		return fmt.Errorf("pqfastscan: capturing for checkpoint: %w", cerr)
	}
	next := d.log.Epoch() + 1
	err := d.log.Rotate(next)
	d.mu.Unlock()
	if err != nil {
		cap.Release()
		return err
	}
	// From here every crash is safe: the old segment plus the new one
	// replay to exactly the captured state plus later mutations. On a
	// paged index the capture holds every extent pinned until the save
	// finishes — the snapshot write needs a stable view of the bytes.
	serr := persist.SaveCapture(fsio.OS, d.snapshotPath(), cap, next)
	cap.Release()
	if serr != nil {
		return serr
	}
	return removeSegmentsBefore(d.dir, next)
}

// WALStats returns log counters and fsync latency quantiles; ok is
// false when the index has no WAL.
func (ix *Index) WALStats() (stats WALStats, ok bool) {
	d := ix.dur.Load()
	if d == nil {
		return WALStats{}, false
	}
	s := d.log.Stats()
	return WALStats{
		Epoch:      s.Epoch,
		Bytes:      s.Bytes,
		Records:    s.Records,
		Fsyncs:     s.Fsyncs,
		FsyncP50Ms: s.FsyncP50Ms,
		FsyncP99Ms: s.FsyncP99Ms,
		Replayed:   d.replayed,
		ReplayMs:   float64(d.replayDur) / float64(time.Millisecond),
	}, true
}

// CloseWAL fsyncs and closes the log. Mutations after CloseWAL fail;
// the index keeps serving reads. No-op without a WAL.
func (ix *Index) CloseWAL() error {
	d := ix.dur.Load()
	if d == nil {
		return nil
	}
	return d.log.Close()
}

// addDurable is the mutation path behind Add/AddBatch: encode and
// route, allocate ids, make the record durable, then apply — so an
// acknowledged batch is always recoverable, and a crash mid-call loses
// only a mutation nobody was told succeeded.
func (ix *Index) addDurable(vectors Matrix) ([]int64, error) {
	d := ix.dur.Load()
	if d == nil {
		return ix.load().Add(vectors)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	in := ix.load()
	cells, codes, err := in.EncodeRoute(vectors)
	if err != nil {
		return nil, err
	}
	n := len(cells)
	if n == 0 {
		return nil, nil
	}
	base := in.AllocIDs(n)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = base + int64(i)
	}
	if err := d.log.AppendAdd(cells, ids, codes, in.PQ.M); err != nil {
		return nil, fmt.Errorf("pqfastscan: logging add: %w", err)
	}
	if err := in.ApplyAdd(cells, ids, codes); err != nil {
		return nil, err
	}
	return ids, nil
}

// deleteDurable validates and applies the delete first (an ErrNotFound
// must not pollute the log), then logs it. The log-append position is
// always after the add that created the id — the add logged before
// applying, so its record was already in the log when the delete could
// first see the id — which keeps replay order correct.
func (ix *Index) deleteDurable(id int64) error {
	d := ix.dur.Load()
	if d == nil {
		return ix.load().Delete(id)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := ix.load().Delete(id); err != nil {
		return err
	}
	if err := d.log.AppendDelete(id); err != nil {
		return fmt.Errorf("pqfastscan: logging delete: %w", err)
	}
	return nil
}

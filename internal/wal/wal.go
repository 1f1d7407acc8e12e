// Package wal is the write-ahead log under online mutations (DESIGN.md
// §14). Every Add/AddBatch/Delete appends one record — pre-encoded
// codes and routed cells, so replay re-applies exactly the bytes the
// original mutation indexed — and the append does not return until the
// record is on stable storage. There is no other mode: a crash loses
// nothing that was acknowledged, because recovery loads the latest
// snapshot and replays the log over it (replay.go).
//
// One log segment corresponds to one snapshot epoch. The segment
// wal-<epoch>.log holds every mutation accepted after the snapshot
// stamped with that epoch was captured; a checkpoint rotates to
// wal-<epoch+1>.log, persists the snapshot stamped epoch+1, and deletes
// the older segments. Recovery replays the segments whose epoch is >=
// the snapshot's — each record exactly once, no LSNs needed.
//
// On-disk layout, all little-endian:
//
//	header: "PQFSWAL1" | u64 epoch
//	frame:  u32 payloadLen | u32 crc32c(payload) | payload
//	add payload:    u8 1 | u32 n | u32 m | n x u32 cell | n x i64 id | n*m code bytes
//	delete payload: u8 2 | i64 id
//
// The CRC is Castagnoli (CRC32C), hardware-accelerated on amd64 and
// arm64. A torn tail — a frame cut short or failing its CRC — marks the
// exact durability horizon: everything before it was acknowledged,
// everything from it on was not, so recovery truncates there instead of
// failing (replay.go).
//
// Group commit: concurrent appenders write their frames under the log
// mutex, then one of them (the leader) issues a single fsync covering
// every frame written so far while the others wait on it — N
// acknowledged writes per fsync under concurrency, one per write when
// idle.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"time"

	"pqfastscan/internal/fsio"
	"pqfastscan/internal/hist"
)

// Record type tags (first payload byte).
const (
	RecordAdd    = 1
	RecordDelete = 2
)

var (
	// magic heads every segment, versioned like the snapshot magic.
	magic = []byte("PQFSWAL1")

	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	// ErrClosed reports an append to a closed log.
	ErrClosed = errors.New("wal: log closed")
)

const (
	headerLen = 16 // magic + epoch
	frameLen  = 8  // payload length + crc32c
	// maxFrame bounds untrusted payload lengths at replay; anything
	// larger is treated as a torn tail.
	maxFrame = 1 << 30
)

// Options configures a Log. Whatever it holds, every append returns
// only after its record is fsynced (grouped with concurrent appenders
// into one fsync).
type Options struct {
	// FS is the filesystem seam (default fsio.OS). The crash harness
	// injects failing filesystems here.
	FS fsio.FS
}

func (o Options) fs() fsio.FS {
	if o.FS == nil {
		return fsio.OS
	}
	return o.FS
}

// Stats is a point-in-time projection of a Log's counters, shaped for
// direct embedding in a /stats document.
type Stats struct {
	Epoch      uint64  `json:"epoch"`
	Bytes      int64   `json:"bytes"`   // frame bytes appended, all segments
	Records    int64   `json:"records"` // records appended, all segments
	Fsyncs     int64   `json:"fsyncs"`
	FsyncP50Ms float64 `json:"fsync_p50_ms"`
	FsyncP99Ms float64 `json:"fsync_p99_ms"`
}

// Log is an open write-ahead log bound to one directory. Appends are
// safe for concurrent use; Rotate and Close serialize with them.
type Log struct {
	fsys fsio.FS
	dir  string

	mu      sync.Mutex
	cond    *sync.Cond // signals fsync progress to group-commit waiters
	f       fsio.File
	epoch   uint64
	gen     uint64 // bumps on Rotate so waiters from an old segment return
	written int64  // bytes written to the current segment
	synced  int64  // bytes of the current segment known durable
	syncing bool   // a leader's fsync is in flight outside mu
	err     error  // sticky: any write/fsync failure poisons the log
	closed  bool

	bytes   int64 // totals across rotations, guarded by mu
	records int64
	fsyncs  int64

	fsyncLat hist.Hist
}

// SegmentPath returns the path of the segment holding epoch's records.
func SegmentPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", epoch))
}

// Create starts a fresh segment for epoch in dir (truncating any
// leftover file of the same name — a crash can leave a segment that was
// created but never became part of a durable checkpoint). The header is
// written and fsynced, and the directory entry made durable, before
// Create returns.
func Create(dir string, epoch uint64, opts Options) (*Log, error) {
	l := &Log{fsys: opts.fs(), dir: dir}
	l.cond = sync.NewCond(&l.mu)
	l.mu.Lock()
	err := l.openSegmentLocked(epoch)
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return l, nil
}

// openSegmentLocked creates and syncs the segment file for epoch and
// points the log at it. Callers hold mu.
func (l *Log) openSegmentLocked(epoch uint64) error {
	path := SegmentPath(l.dir, epoch)
	f, err := l.fsys.Create(path)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing wal directory: %w", err)
	}
	l.f = f
	l.epoch = epoch
	l.gen++
	l.written = headerLen
	l.synced = headerLen
	return nil
}

// Epoch returns the epoch of the segment currently appended to.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// AppendAdd logs one acknowledged Add batch: n pre-routed cells, the n
// assigned ids, and the n*m pre-encoded codes. It returns only once the
// record is durable.
func (l *Log) AppendAdd(cells []int, ids []int64, codes []byte, m int) error {
	n := len(cells)
	if len(ids) != n || len(codes) != n*m {
		return fmt.Errorf("wal: add record shape mismatch: %d cells, %d ids, %d codes for m=%d",
			n, len(ids), len(codes), m)
	}
	payload := make([]byte, 1+4+4+4*n+8*n+len(codes))
	le := binary.LittleEndian
	payload[0] = RecordAdd
	le.PutUint32(payload[1:], uint32(n))
	le.PutUint32(payload[5:], uint32(m))
	off := 9
	for _, c := range cells {
		le.PutUint32(payload[off:], uint32(c))
		off += 4
	}
	for _, id := range ids {
		le.PutUint64(payload[off:], uint64(id))
		off += 8
	}
	copy(payload[off:], codes)
	return l.append(payload)
}

// AppendDelete logs one acknowledged Delete, returning once it is
// durable.
func (l *Log) AppendDelete(id int64) error {
	var payload [9]byte
	payload[0] = RecordDelete
	binary.LittleEndian.PutUint64(payload[1:], uint64(id))
	return l.append(payload[:])
}

// append frames the payload, writes it, and waits until it is durable.
func (l *Log) append(payload []byte) error {
	frame := make([]byte, frameLen+len(payload))
	le := binary.LittleEndian
	le.PutUint32(frame[0:], uint32(len(payload)))
	le.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameLen:], payload)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		// The segment now ends in a torn frame; poison the log so no
		// later append can be acknowledged past the tear.
		l.err = fmt.Errorf("wal: appending record: %w", err)
		err = l.err
		l.cond.Broadcast()
		l.mu.Unlock()
		return err
	}
	l.written += int64(len(frame))
	l.bytes += int64(len(frame))
	l.records++
	err := l.syncToLocked(l.written)
	l.mu.Unlock()
	return err
}

// syncToLocked blocks until the current segment is durable through
// target (or the log is poisoned, or a rotation supersedes the segment
// after having synced it). The first blocked appender becomes the group
// commit leader: it fsyncs once, covering every frame written by the
// time it runs, and wakes the others. Callers hold mu; it is released
// around the fsync.
func (l *Log) syncToLocked(target int64) error {
	myGen := l.gen
	for l.gen == myGen && l.synced < target && l.err == nil {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		covered := l.written
		f := l.f
		l.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		lat := time.Since(start)
		l.mu.Lock()
		l.syncing = false
		l.fsyncs++
		l.fsyncLat.Observe(lat)
		if err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		} else if l.gen == myGen && covered > l.synced {
			l.synced = covered
		}
		l.cond.Broadcast()
	}
	return l.err
}

// Sync forces an fsync of everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncToLocked(l.written)
}

// Rotate fsyncs and closes the current segment and starts a fresh one
// for epoch — the log half of a checkpoint. The caller must exclude
// concurrent appends (the durability layer holds its mutation write
// lock across Rotate); group-commit waiters, if any, are guaranteed
// durable before the segment is superseded.
func (l *Log) Rotate(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.syncToLocked(l.written); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: closing segment: %w", err)
		return l.err
	}
	if err := l.openSegmentLocked(epoch); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Stats returns a point-in-time snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Epoch:      l.epoch,
		Bytes:      l.bytes,
		Records:    l.records,
		Fsyncs:     l.fsyncs,
		FsyncP50Ms: l.fsyncLat.QuantileMs(0.50),
		FsyncP99Ms: l.fsyncLat.QuantileMs(0.99),
	}
}

// Close fsyncs outstanding records and closes the segment. Further
// appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	syncErr := l.syncToLocked(l.written)
	l.closed = true
	closeErr := l.f.Close()
	l.cond.Broadcast()
	l.mu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("wal: closing segment: %w", closeErr)
	}
	return nil
}

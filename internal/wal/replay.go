// Recovery half of the WAL: segment discovery, frame-by-frame replay,
// and torn-tail truncation. The durability horizon of a crashed process
// is exactly the last frame whose length, CRC and payload all check
// out; everything after it was never acknowledged (an append returns
// only after its fsync), so replay truncates the tail there and reports
// it instead of failing recovery.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"

	"pqfastscan/internal/fsio"
)

// Record is one decoded log record. Type is RecordAdd or RecordDelete;
// an add carries parallel Cells/IDs plus the flat Codes block (M bytes
// per row), a delete carries just ID.
type Record struct {
	Type  byte
	Cells []int
	IDs   []int64
	Codes []byte
	M     int
	ID    int64
}

// Segment names one on-disk log segment.
type Segment struct {
	Path  string
	Epoch uint64
}

// Segments lists the log segments in dir, ascending by epoch. Files not
// matching the wal-<hex>.log pattern are ignored.
func Segments(fsys fsio.FS, dir string) ([]Segment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var out []Segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		epoch, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		out = append(out, Segment{Path: SegmentPath(dir, epoch), Epoch: epoch})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, nil
}

// ReplayResult describes one segment's replay.
type ReplayResult struct {
	Epoch     uint64
	Records   int   // good records decoded and applied
	GoodBytes int64 // file offset of the last good frame's end
	Truncated bool  // a torn tail was found and cut at GoodBytes
	TornBytes int64 // bytes discarded by the truncation
}

// Replay decodes every intact record of the segment at path, in order,
// calling apply for each. A torn tail — short frame, implausible
// length, or CRC mismatch — ends the replay at the last good frame and
// truncates the file there, so the next process starts from a clean
// boundary. An error from apply aborts the replay and is returned
// as-is; files that are not segments (bad magic) are an error, while a
// file too short to hold its header replays as empty (the crash
// happened during segment creation, before anything was acknowledged).
func Replay(fsys fsio.FS, path string, apply func(*Record) error) (ReplayResult, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("wal: opening segment: %w", err)
	}
	res, size, applyErr := replayFrames(f, apply)
	closeErr := f.Close()
	if applyErr != nil {
		return res, applyErr
	}
	if closeErr != nil {
		return res, fmt.Errorf("wal: closing segment: %w", closeErr)
	}
	if res.Truncated {
		res.TornBytes = size - res.GoodBytes
		if err := fsys.Truncate(path, res.GoodBytes); err != nil {
			return res, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	return res, nil
}

// replayFrames streams frames out of r, returning the replay result,
// the total bytes consumed, and any apply/format error.
func replayFrames(r io.Reader, apply func(*Record) error) (ReplayResult, int64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	le := binary.LittleEndian
	var res ReplayResult

	var hdr [headerLen]byte
	n, err := io.ReadFull(br, hdr[:])
	size := int64(n)
	if err != nil {
		// Shorter than a header: the process died creating this segment,
		// before any record could have been acknowledged from it.
		res.Truncated = size > 0
		return res, size, nil
	}
	if string(hdr[:8]) != string(magic) {
		return res, size, fmt.Errorf("wal: bad segment magic %q", hdr[:8])
	}
	res.Epoch = le.Uint64(hdr[8:])
	res.GoodBytes = headerLen

	var frame [frameLen]byte
	for {
		n, err := io.ReadFull(br, frame[:])
		size += int64(n)
		if err == io.EOF {
			return res, size, nil // clean end on a frame boundary
		}
		if err != nil {
			res.Truncated = true // frame header cut short
			return res, size, nil
		}
		payloadLen := le.Uint32(frame[0:])
		wantCRC := le.Uint32(frame[4:])
		if payloadLen > maxFrame {
			// A length this large is a torn or scribbled frame header,
			// not a record anyone could have written.
			res.Truncated = true
			return res, size, nil
		}
		// Read in bounded chunks: the length is untrusted until the CRC
		// checks, so a scribbled header costs only the bytes present.
		payload, err := fsio.ReadN(br, int(payloadLen))
		size += int64(len(payload))
		if err != nil {
			res.Truncated = true // payload cut short
			return res, size, nil
		}
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			res.Truncated = true // torn write inside the payload
			return res, size, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The CRC passed, so these bytes are what was written: this
			// is corruption or version skew, not a torn tail.
			return res, size, err
		}
		if err := apply(rec); err != nil {
			return res, size, err
		}
		res.Records++
		res.GoodBytes = size
	}
}

// decodeRecord parses one CRC-validated payload.
func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("wal: empty record payload")
	}
	le := binary.LittleEndian
	switch payload[0] {
	case RecordAdd:
		if len(payload) < 9 {
			return nil, fmt.Errorf("wal: add record too short (%d bytes)", len(payload))
		}
		n := int(le.Uint32(payload[1:]))
		m := int(le.Uint32(payload[5:]))
		want := 9 + 4*n + 8*n + n*m
		if n < 0 || m <= 0 || len(payload) != want {
			return nil, fmt.Errorf("wal: add record shape mismatch: n=%d m=%d payload=%d", n, m, len(payload))
		}
		rec := &Record{Type: RecordAdd, M: m, Cells: make([]int, n), IDs: make([]int64, n)}
		off := 9
		for i := 0; i < n; i++ {
			rec.Cells[i] = int(le.Uint32(payload[off:]))
			off += 4
		}
		for i := 0; i < n; i++ {
			rec.IDs[i] = int64(le.Uint64(payload[off:]))
			off += 8
		}
		rec.Codes = append([]byte(nil), payload[off:]...)
		return rec, nil
	case RecordDelete:
		if len(payload) != 9 {
			return nil, fmt.Errorf("wal: delete record has %d bytes, want 9", len(payload))
		}
		return &Record{Type: RecordDelete, ID: int64(le.Uint64(payload[1:]))}, nil
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", payload[0])
	}
}

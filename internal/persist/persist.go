// Package persist serializes trained indexes so the expensive
// construction pipeline (coarse quantizer, product quantizer, residual
// encoding, optimized assignment) runs once and queries can start
// immediately on reload — the operational mode the paper assumes
// ("database vectors are stored as pqcodes", §2.1; the index is built
// offline).
//
// The format is a simple little-endian binary layout with a magic
// header and a version byte. There is one format, version 3 (DESIGN.md
// §5): the writer writes it and the reader reads only it, refusing any
// other version byte, by name, before it reads a section.
//
//	"PQFSIDX\x03"
//	u32 dim, u32 partitions
//	u32 m, u32 bits, u32 subdim          (always PQ 8×8)
//	m codebooks: k* x subdim float32
//	coarse centroids: partitions x dim float32
//	options: f64 keep, i32 groupComponents, u8 reserved, u8 optimized
//	u64 nextID    (the id allocator position, so reloads never reuse ids)
//	u64 walEpoch  (the WAL segment epoch this snapshot pairs with:
//	               recovery replays segments with epoch >= walEpoch;
//	               0 for a plain export)
//	per partition: u32 n, n x m bytes codes, n x i64 ids,
//	               u32 nDead, nDead x i64 tombstoned ids
//	u32 crc32c | "PQFSEND1"
//
// The reserved option byte once selected a group visit order; it is
// written 0 and ignored on read. The checksum is CRC-32C (Castagnoli,
// hardware-accelerated, matching the WAL) over everything after the
// magic, and the end magic detects a truncation that happens to leave
// a self-consistent prefix.
//
// The reader trusts nothing it has not read: every section whose size a
// header field gives is read in bounded chunks, so memory grows with the
// bytes actually present and a lying or truncated file ends in an
// error; every id must lie in [0, nextID), and a tombstone list must
// name rows its partition holds.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"pqfastscan/internal/fsio"
	"pqfastscan/internal/index"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/vec"
)

var (
	magicPrefix = []byte("PQFSIDX")
	endMagic    = []byte("PQFSEND1")
	castagnoli  = crc32.MakeTable(crc32.Castagnoli)
)

// version is the one format version written and read; a file with any
// other version byte is refused.
const version = 3

// maxReasonable bounds untrusted size fields while decoding.
const maxReasonable = 1 << 31

type countingWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	return n, err
}

// WriteIndex serializes ix to w in the current format (version 3, WAL
// epoch 0 — a plain export not paired with any log).
func WriteIndex(w io.Writer, ix *index.Index) error {
	cap, err := ix.Capture()
	if err != nil {
		return err
	}
	defer cap.Release()
	return WriteCapture(w, cap, 0)
}

// WriteCapture serializes a point-in-time capture in the current format,
// stamped with the WAL segment epoch it pairs with. This is the
// checkpoint write path: the durability layer captures under its
// mutation lock and serializes here without blocking writers.
func WriteCapture(w io.Writer, cap index.Capture, walEpoch uint64) error {
	// The capture is a coherent image: sealed partitions from one
	// snapshot plus an allocator position read after it, so nextID covers
	// every id the captured partitions hold.
	parts := cap.Parts
	nextID := cap.NextID

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(append(append([]byte(nil), magicPrefix...), version)); err != nil {
		return fmt.Errorf("persist: writing magic: %w", err)
	}
	cw := &countingWriter{w: bw, crc: crc32.New(castagnoli)}
	le := binary.LittleEndian

	writeU32 := func(v uint32) error {
		var b [4]byte
		le.PutUint32(b[:], v)
		_, err := cw.Write(b[:])
		return err
	}
	writeF32s := func(vs []float32) error {
		buf := make([]byte, 4*len(vs))
		for i, v := range vs {
			le.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		_, err := cw.Write(buf)
		return err
	}

	pq := cap.PQ
	header := []uint32{
		uint32(cap.Dim), uint32(len(parts)),
		uint32(pq.M), uint32(pq.Bits), uint32(pq.SubDim),
	}
	for _, v := range header {
		if err := writeU32(v); err != nil {
			return fmt.Errorf("persist: writing header: %w", err)
		}
	}
	for j := 0; j < pq.M; j++ {
		if err := writeF32s(pq.Codebooks[j].Data); err != nil {
			return fmt.Errorf("persist: writing codebook %d: %w", j, err)
		}
	}
	if err := writeF32s(cap.Coarse.Data); err != nil {
		return fmt.Errorf("persist: writing coarse centroids: %w", err)
	}

	opt := cap.Opt
	var optBuf [14]byte
	le.PutUint64(optBuf[0:], math.Float64bits(opt.FastScan.Keep))
	le.PutUint32(optBuf[8:], uint32(int32(opt.FastScan.GroupComponents)))
	// optBuf[12] is reserved: written 0.
	if opt.OptimizeAssignment {
		optBuf[13] = 1
	}
	if _, err := cw.Write(optBuf[:]); err != nil {
		return fmt.Errorf("persist: writing options: %w", err)
	}

	var idBuf [8]byte
	le.PutUint64(idBuf[:], uint64(nextID))
	if _, err := cw.Write(idBuf[:]); err != nil {
		return fmt.Errorf("persist: writing next id: %w", err)
	}
	var epochBuf [8]byte
	le.PutUint64(epochBuf[:], walEpoch)
	if _, err := cw.Write(epochBuf[:]); err != nil {
		return fmt.Errorf("persist: writing wal epoch: %w", err)
	}

	for pi, p := range parts {
		if err := writeU32(uint32(p.N)); err != nil {
			return fmt.Errorf("persist: writing partition %d size: %w", pi, err)
		}
		// Rows in layout order: a base as it is (the index keeps every
		// base in Fast Scan order), a base with a tail in the order its
		// fold gives it. The file does not say (and a reader cannot tell)
		// where a fold was due, and loading it reorders nothing.
		if p.Tail() > 0 {
			p = scan.Ordered(p.Flatten(), opt.FastScan)
		}
		if _, err := cw.Write(p.FlatCodes()); err != nil {
			return fmt.Errorf("persist: writing partition %d codes: %w", pi, err)
		}
		idBuf := make([]byte, 8*p.N)
		for i := 0; i < p.N; i++ {
			le.PutUint64(idBuf[8*i:], uint64(p.ID(i)))
		}
		if _, err := cw.Write(idBuf); err != nil {
			return fmt.Errorf("persist: writing partition %d ids: %w", pi, err)
		}
		dead := p.DeadIDs()
		if err := writeU32(uint32(len(dead))); err != nil {
			return fmt.Errorf("persist: writing partition %d tombstone count: %w", pi, err)
		}
		deadBuf := make([]byte, 8*len(dead))
		for i, id := range dead {
			le.PutUint64(deadBuf[8*i:], uint64(id))
		}
		if _, err := cw.Write(deadBuf); err != nil {
			return fmt.Errorf("persist: writing partition %d tombstones: %w", pi, err)
		}
	}

	var crcBuf [4]byte
	le.PutUint32(crcBuf[:], cw.crc.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("persist: writing checksum: %w", err)
	}
	if _, err := bw.Write(endMagic); err != nil {
		return fmt.Errorf("persist: writing end magic: %w", err)
	}
	return bw.Flush()
}

type countingReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// ReadIndex deserializes an index written by WriteIndex or
// WriteCapture (format version 3, the only one read).
func ReadIndex(r io.Reader) (*index.Index, error) {
	return ReadIndexCells(r, nil)
}

// ReadIndexCells is ReadIndex restricted to a subset of coarse cells —
// the shard-side load path of scatter-gather cluster serving. A nil
// keep loads everything; otherwise partitions whose cell id is not in
// keep are decoded and discarded, leaving empty partitions in their
// slots. Cell count, centroids, quantizers and the id allocator are
// identical to a full load, so cell numbering stays global: a shard
// holding cells {2,5} of an 8-cell index computes the same residual
// tables and distances for those cells as a full single-node load.
// The trailing CRC still covers the whole file, skipped cells included.
func ReadIndexCells(r io.Reader, keep []int) (*index.Index, error) {
	ix, _, err := readIndexCells(r, keep)
	return ix, err
}

func readIndexCells(r io.Reader, keep []int) (*index.Index, uint64, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicPrefix)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, fmt.Errorf("persist: reading magic: %w", err)
	}
	for i := range magicPrefix {
		if head[i] != magicPrefix[i] {
			return nil, 0, fmt.Errorf("persist: bad magic %q (not a pqfastscan index)", head)
		}
	}
	if v := head[len(magicPrefix)]; v != version {
		return nil, 0, fmt.Errorf("persist: unsupported format version %d (this build reads version %d only)", v, version)
	}
	cr := &countingReader{r: br, crc: crc32.New(castagnoli)}
	le := binary.LittleEndian

	readU32 := func() (int, error) {
		var b [4]byte
		if _, err := io.ReadFull(cr, b[:]); err != nil {
			return 0, err
		}
		v := le.Uint32(b[:])
		if v > maxReasonable {
			return 0, fmt.Errorf("persist: implausible size field %d", v)
		}
		return int(v), nil
	}
	readF32s := func(n int) ([]float32, error) {
		buf, err := fsio.ReadN(cr, 4*n)
		if err != nil {
			return nil, err
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(le.Uint32(buf[4*i:]))
		}
		return out, nil
	}

	dim, err := readU32()
	if err != nil {
		return nil, 0, fmt.Errorf("persist: reading dim: %w", err)
	}
	partitions, err := readU32()
	if err != nil {
		return nil, 0, fmt.Errorf("persist: reading partition count: %w", err)
	}
	m, err := readU32()
	if err != nil {
		return nil, 0, fmt.Errorf("persist: reading m: %w", err)
	}
	bits, err := readU32()
	if err != nil {
		return nil, 0, fmt.Errorf("persist: reading bits: %w", err)
	}
	subdim, err := readU32()
	if err != nil {
		return nil, 0, fmt.Errorf("persist: reading subdim: %w", err)
	}
	// Every index is PQ 8×8, the one shape the scan kernels read.
	if m != scan.M || bits != 8 {
		return nil, 0, fmt.Errorf("persist: index is PQ %d×%d, only PQ 8×8 is served", m, bits)
	}
	if subdim <= 0 || m*subdim != dim || partitions <= 0 {
		return nil, 0, fmt.Errorf("persist: inconsistent header (dim=%d partitions=%d m=%d bits=%d subdim=%d)",
			dim, partitions, m, bits, subdim)
	}
	var keepSet map[int]bool
	if keep != nil {
		keepSet = make(map[int]bool, len(keep))
		for _, c := range keep {
			if c < 0 || c >= partitions {
				return nil, 0, fmt.Errorf("persist: kept cell %d out of range [0,%d)", c, partitions)
			}
			keepSet[c] = true
		}
	}
	cfg := quantizer.PQ8x8
	pq := &quantizer.ProductQuantizer{
		Config: cfg,
		Dim:    dim,
		SubDim: subdim,
	}
	for j := 0; j < m; j++ {
		data, err := readF32s(cfg.KStar() * subdim)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: reading codebook %d: %w", j, err)
		}
		pq.Codebooks = append(pq.Codebooks, vec.Matrix{Data: data, Dim: subdim})
	}
	coarseData, err := readF32s(partitions * dim)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: reading coarse centroids: %w", err)
	}
	coarse := vec.Matrix{Data: coarseData, Dim: dim}

	var optBuf [14]byte
	if _, err := io.ReadFull(cr, optBuf[:]); err != nil {
		return nil, 0, fmt.Errorf("persist: reading options: %w", err)
	}
	opt := index.Options{
		Partitions:         partitions,
		OptimizeAssignment: optBuf[13] == 1,
		FastScan: scan.FastScanOptions{
			Keep:            math.Float64frombits(le.Uint64(optBuf[0:])),
			GroupComponents: int(int32(le.Uint32(optBuf[8:]))),
		},
	}
	if err := opt.FastScan.Check(); err != nil {
		return nil, 0, fmt.Errorf("persist: implausible fast scan options: %w", err)
	}

	var idBuf [8]byte
	if _, err := io.ReadFull(cr, idBuf[:]); err != nil {
		return nil, 0, fmt.Errorf("persist: reading next id: %w", err)
	}
	nextID := int64(le.Uint64(idBuf[:]))
	if nextID < 0 {
		return nil, 0, fmt.Errorf("persist: implausible next id %d", nextID)
	}
	var epochBuf [8]byte
	if _, err := io.ReadFull(cr, epochBuf[:]); err != nil {
		return nil, 0, fmt.Errorf("persist: reading wal epoch: %w", err)
	}
	walEpoch := le.Uint64(epochBuf[:])

	var parts []*scan.Partition
	for pi := 0; pi < partitions; pi++ {
		n, err := readU32()
		if err != nil {
			return nil, 0, fmt.Errorf("persist: reading partition %d size: %w", pi, err)
		}
		codes, err := fsio.ReadN(cr, n*m)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: reading partition %d codes: %w", pi, err)
		}
		idBuf, err := fsio.ReadN(cr, 8*n)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: reading partition %d ids: %w", pi, err)
		}
		// Every id lies below the allocator, or the next Add would issue
		// it again.
		for i := 0; i < n; i++ {
			if id := int64(le.Uint64(idBuf[8*i:])); id < 0 || id >= nextID {
				return nil, 0, fmt.Errorf("persist: partition %d holds id %d, outside the allocated range [0,%d)", pi, id, nextID)
			}
		}
		kept := keepSet == nil || keepSet[pi]
		// A skipped cell's bytes are read all the same (the CRC covers
		// them), but its slot holds an empty partition.
		p := scan.NewPartition(nil, nil)
		if kept {
			p = scan.NewPartitionFunc(codes, func(i int) int64 { return int64(le.Uint64(idBuf[8*i:])) })
		}
		nDead, err := readU32()
		if err != nil {
			return nil, 0, fmt.Errorf("persist: reading partition %d tombstone count: %w", pi, err)
		}
		if nDead > n {
			return nil, 0, fmt.Errorf("persist: partition %d has %d tombstones for %d vectors", pi, nDead, n)
		}
		deadBuf, err := fsio.ReadN(cr, 8*nDead)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: reading partition %d tombstones: %w", pi, err)
		}
		if kept {
			dead := make([]int64, nDead)
			for i := range dead {
				dead[i] = int64(le.Uint64(deadBuf[8*i:]))
			}
			if err := p.RestoreDead(dead); err != nil {
				return nil, 0, fmt.Errorf("persist: partition %d: %w", pi, err)
			}
		}
		parts = append(parts, p)
	}

	sum := cr.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, 0, fmt.Errorf("persist: reading checksum: %w", err)
	}
	if got := le.Uint32(crcBuf[:]); got != sum {
		return nil, 0, fmt.Errorf("persist: checksum mismatch (file %#x, computed %#x)", got, sum)
	}
	end := make([]byte, len(endMagic))
	if _, err := io.ReadFull(br, end); err != nil {
		return nil, 0, fmt.Errorf("persist: reading end magic (file truncated?): %w", err)
	}
	for i := range endMagic {
		if end[i] != endMagic[i] {
			return nil, 0, fmt.Errorf("persist: bad end magic %q (file truncated or corrupt)", end)
		}
	}
	return index.Restore(dim, coarse, pq, parts, opt, nextID), walEpoch, nil
}

// SaveIndex writes ix to path atomically and durably: write to a temp
// file in the same directory, fsync it, rename it into place, and fsync
// the parent directory so the rename itself survives power loss. Without
// the two fsyncs a crash shortly after SaveIndex could leave either an
// empty rename target or the old file — the classic torn-rename bug.
func SaveIndex(path string, ix *index.Index) error {
	cap, err := ix.Capture()
	if err != nil {
		return err
	}
	defer cap.Release()
	return SaveCapture(fsio.OS, path, cap, 0)
}

// SaveCapture atomically and durably writes a checkpoint capture
// stamped with its WAL epoch, through the given filesystem (the crash
// harness injects failing ones; production passes fsio.OS).
func SaveCapture(fsys fsio.FS, path string, cap index.Capture, walEpoch uint64) error {
	tmp, err := fsys.CreateTemp(dirOf(path), ".pqfsidx-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp file: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	if err := WriteCapture(tmp, cap, walEpoch); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing temp file: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: renaming into place: %w", err)
	}
	if err := fsys.SyncDir(dirOf(path)); err != nil {
		return fmt.Errorf("persist: syncing directory: %w", err)
	}
	return nil
}

// LoadIndex reads an index from path.
func LoadIndex(path string) (*index.Index, error) {
	return LoadIndexCells(path, nil)
}

// LoadIndexEpoch reads an index and its stamped WAL epoch from path,
// through the given filesystem — the recovery path.
func LoadIndexEpoch(fsys fsio.FS, path string) (*index.Index, uint64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: opening index: %w", err)
	}
	defer f.Close()
	return readIndexCells(f, nil)
}

// LoadIndexCells reads an index from path keeping only the listed
// coarse cells (nil keeps all) — see ReadIndexCells.
func LoadIndexCells(path string, keep []int) (*index.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: opening index: %w", err)
	}
	defer f.Close()
	return ReadIndexCells(f, keep)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

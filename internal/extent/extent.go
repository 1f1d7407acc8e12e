// Package extent gives sealed partition payloads a stable identity and
// a page-aligned on-disk representation — the shared immutable-extent
// abstraction under the beyond-RAM serving path (DESIGN.md §15).
//
// An extent is a write-once file holding one partition epoch's bulk
// data as named sections (row-major codes, materialized ids, packed
// grouped blocks, ...). The format extends the discipline of the v3
// snapshot format in internal/persist — magic, CRC-32C (Castagnoli)
// over the payload, end magic for truncation detection, atomic
// temp-write + fsync + rename publication — and adds the property the
// scan path needs: the payload starts at a page boundary (PageSize) and
// every section starts at a 64-byte boundary within it, so a payload
// read into a layout.Alignment-aligned buffer hands the asm kernels
// their blocks at the required alignment with zero copies.
//
// Extents are a node-local cache, not durable state: they are derived
// from the snapshot + WAL at attach time and rebuilt on restart, so the
// byte order is the writing machine's native order and files are never
// shipped between hosts. The store performs all I/O through an fsio.FS
// so the crash harness can interpose failures.
package extent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"unsafe"

	"pqfastscan/internal/fsio"
	"pqfastscan/internal/layout"
)

const (
	// PageSize is the payload's file offset: one page, so the header
	// never shares a page with scanned data and direct-I/O-style access
	// patterns stay aligned.
	PageSize = 4096
	// SectionAlign is the alignment of every section within the payload
	// (one cache line, matching layout.Alignment).
	SectionAlign = layout.Alignment
	// TempPrefix marks in-flight extent writes; a crash between write
	// and rename leaves such a file behind for the startup sweep.
	TempPrefix = ".pqfsext-"
	// Suffix is the extent file suffix within a store directory.
	Suffix = ".extent"
)

var (
	magic      = [8]byte{'P', 'Q', 'F', 'S', 'E', 'X', 'T', '1'}
	endMagic   = [8]byte{'P', 'Q', 'F', 'S', 'E', 'X', 'T', 'E'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Builder accumulates named sections for one extent write. Section
// order is preserved; each section is padded to SectionAlign within the
// payload.
type Builder struct {
	names []string
	blobs [][]byte
}

// Add appends a named section. The name must be non-empty, unique and
// at most 255 bytes; data may be empty (the section exists with length
// zero). The data slice is retained until Write, not copied.
func (b *Builder) Add(name string, data []byte) {
	if name == "" || len(name) > 255 {
		panic("extent: section name empty or too long")
	}
	for _, n := range b.names {
		if n == name {
			panic("extent: duplicate section " + name)
		}
	}
	b.names = append(b.names, name)
	b.blobs = append(b.blobs, data)
}

// PayloadBytes returns the payload size the builder's sections occupy
// on disk (section data plus inter-section alignment padding).
func (b *Builder) PayloadBytes() int64 {
	var off int64
	for _, blob := range b.blobs {
		off = alignUp(off+int64(len(blob)), SectionAlign)
	}
	return off
}

func alignUp(n int64, a int64) int64 { return (n + a - 1) &^ (a - 1) }

// Payload is a read extent: one Alignment-aligned buffer holding the
// whole payload, plus the section directory to slice it by name.
type Payload struct {
	buf      []byte
	sections map[string]span
}

type span struct{ off, len int64 }

// Bytes returns the full payload buffer (aligned base).
func (p *Payload) Bytes() []byte { return p.buf }

// Section returns the named section, aliasing the payload buffer, and
// whether it exists. The base of every section is 64-byte aligned.
func (p *Payload) Section(name string) ([]byte, bool) {
	s, ok := p.sections[name]
	if !ok {
		return nil, false
	}
	return p.buf[s.off : s.off+s.len : s.off+s.len], true
}

// Uint32Bytes views a []uint32 as bytes in native order, for writing
// an id-offset section without a copy. Extents are node-local (see
// package doc), so native order round-trips.
func Uint32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// BytesUint32 views a byte section as []uint32 in native order. The
// section base must be 4-byte aligned — guaranteed for extent sections
// (SectionAlign) — and the length a multiple of 4.
func BytesUint32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if len(b)%4 != 0 {
		panic("extent: uint32 section length not a multiple of 4")
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		panic("extent: uint32 section base not 4-byte aligned")
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// Store reads and writes extents in one directory through an fsio.FS.
// A store directory is owned by exactly one serving process at a time;
// concurrent owners would sweep each other's cache files.
type Store struct {
	fsys fsio.FS
	dir  string
}

// Open returns a store rooted at dir, creating the directory if absent.
func Open(fsys fsio.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{fsys: fsys, dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(name string) string { return filepath.Join(s.dir, name+Suffix) }

// Write publishes the builder's sections as the named extent, using the
// atomic temp + fsync + rename + dir-fsync protocol of the persist
// layer, and returns the payload size in bytes.
func (s *Store) Write(name string, b *Builder) (int64, error) {
	f, err := s.fsys.CreateTemp(s.dir, TempPrefix+"*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	defer func() {
		if f != nil {
			f.Close()
			s.fsys.Remove(tmp)
		}
	}()

	// Header page: magic, section directory, payload length, CRC.
	header := make([]byte, 0, PageSize)
	header = append(header, magic[:]...)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(b.names)))
	crc := crc32.New(castagnoli)
	var off int64
	for i, n := range b.names {
		header = append(header, byte(len(n)))
		header = append(header, n...)
		header = binary.LittleEndian.AppendUint64(header, uint64(off))
		header = binary.LittleEndian.AppendUint64(header, uint64(len(b.blobs[i])))
		off = alignUp(off+int64(len(b.blobs[i])), SectionAlign)
	}
	payloadLen := off
	header = binary.LittleEndian.AppendUint64(header, uint64(payloadLen))
	var pad [SectionAlign]byte
	for _, blob := range b.blobs {
		crc.Write(blob)
		if p := alignUp(int64(len(blob)), SectionAlign) - int64(len(blob)); p > 0 {
			crc.Write(pad[:p])
		}
	}
	header = binary.LittleEndian.AppendUint32(header, crc.Sum32())
	if len(header) > PageSize {
		return 0, fmt.Errorf("extent %s: section directory exceeds one page (%d bytes)", name, len(header))
	}
	header = append(header, make([]byte, PageSize-len(header))...)

	if _, err := f.Write(header); err != nil {
		return 0, err
	}
	for _, blob := range b.blobs {
		if _, err := f.Write(blob); err != nil {
			return 0, err
		}
		if p := alignUp(int64(len(blob)), SectionAlign) - int64(len(blob)); p > 0 {
			if _, err := f.Write(pad[:p]); err != nil {
				return 0, err
			}
		}
	}
	if _, err := f.Write(endMagic[:]); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		f = nil
		s.fsys.Remove(tmp)
		return 0, err
	}
	f = nil
	if err := s.fsys.Rename(tmp, s.path(name)); err != nil {
		s.fsys.Remove(tmp)
		return 0, err
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return 0, err
	}
	return payloadLen, nil
}

// maxSections is the most section entries a header page can hold: each
// takes at least 17 bytes (name length, offset, length), after the
// magic and count and before the payload length and CRC.
const maxSections = (PageSize - 8 - 4 - 12) / 17

// Read loads the named extent: it validates magic, end magic and the
// payload CRC, and returns the payload in a layout.Alignment-aligned
// buffer so sections (and in particular packed blocks) can be scanned
// in place. The header is not trusted: a section outside the payload,
// or a payload longer than the file, is an error, so reading allocates
// no more than the file's size and a page.
func (s *Store) Read(name string) (*Payload, error) {
	f, err := s.fsys.Open(s.path(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}

	header := make([]byte, PageSize)
	if _, err := io.ReadFull(f, header); err != nil {
		return nil, fmt.Errorf("extent %s: header: %w", name, err)
	}
	if [8]byte(header[:8]) != magic {
		return nil, fmt.Errorf("extent %s: bad magic", name)
	}
	pos := 8
	nsec := int(binary.LittleEndian.Uint32(header[pos:]))
	pos += 4
	if nsec > maxSections {
		return nil, fmt.Errorf("extent %s: %d sections do not fit the header page", name, nsec)
	}
	sections := make(map[string]span, nsec)
	order := make([]span, 0, nsec)
	for i := 0; i < nsec; i++ {
		if pos+1 > len(header) {
			return nil, fmt.Errorf("extent %s: truncated section directory", name)
		}
		nl := int(header[pos])
		pos++
		if pos+nl+16 > len(header) {
			return nil, fmt.Errorf("extent %s: truncated section directory", name)
		}
		secName := string(header[pos : pos+nl])
		pos += nl
		off := int64(binary.LittleEndian.Uint64(header[pos:]))
		length := int64(binary.LittleEndian.Uint64(header[pos+8:]))
		pos += 16
		if off < 0 || length < 0 || off%SectionAlign != 0 {
			return nil, fmt.Errorf("extent %s: bad section %s geometry", name, secName)
		}
		sections[secName] = span{off, length}
		order = append(order, span{off, length})
	}
	if pos+12 > len(header) {
		return nil, fmt.Errorf("extent %s: truncated header", name)
	}
	payloadLen := int64(binary.LittleEndian.Uint64(header[pos:]))
	wantCRC := binary.LittleEndian.Uint32(header[pos+8:])
	if payloadLen < 0 || payloadLen > fi.Size()-PageSize-int64(len(endMagic)) {
		return nil, fmt.Errorf("extent %s: truncated (payload of %d bytes in a %d-byte file)", name, payloadLen, fi.Size())
	}
	for _, sp := range order {
		if sp.off > payloadLen || sp.len > payloadLen-sp.off {
			return nil, fmt.Errorf("extent %s: section beyond payload", name)
		}
	}

	buf := layout.AlignedBytes(int(payloadLen), 0)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("extent %s: payload: %w", name, err)
	}
	var tail [8]byte
	if _, err := io.ReadFull(f, tail[:]); err != nil {
		return nil, fmt.Errorf("extent %s: truncated (no end magic): %w", name, err)
	}
	if tail != endMagic {
		return nil, fmt.Errorf("extent %s: bad end magic", name)
	}
	if got := crc32.Checksum(buf, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("extent %s: payload CRC mismatch (got %08x want %08x)", name, got, wantCRC)
	}
	return &Payload{buf: buf, sections: sections}, nil
}

// Remove deletes the named extent. A missing file is not an error (the
// finalizer-driven GC may race a startup sweep).
func (s *Store) Remove(name string) error {
	err := s.fsys.Remove(s.path(name))
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// SweepOrphans removes in-flight temp files and every extent for which
// keep returns false, returning the removed paths. Run at attach time,
// before any writer is active: extents are a rebuildable cache, so
// anything a previous owner left behind is garbage.
func (s *Store) SweepOrphans(keep func(name string) bool) ([]string, error) {
	removed, err := fsio.SweepTemp(s.fsys, s.dir, TempPrefix)
	if err != nil {
		return removed, err
	}
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return removed, err
	}
	swept := false
	for _, e := range entries {
		base := e.Name()
		if e.IsDir() || !strings.HasSuffix(base, Suffix) {
			continue
		}
		name := strings.TrimSuffix(base, Suffix)
		if keep != nil && keep(name) {
			continue
		}
		path := filepath.Join(s.dir, base)
		if err := s.fsys.Remove(path); err != nil {
			return removed, err
		}
		removed = append(removed, path)
		swept = true
	}
	if swept {
		if err := s.fsys.SyncDir(s.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

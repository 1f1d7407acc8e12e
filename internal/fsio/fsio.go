// Package fsio is the filesystem seam under the durability layer.
//
// persist and wal perform every write-path filesystem operation through
// the FS interface instead of calling the os package directly, so the
// crash/fault-injection harness (internal/crashtest) can interpose a
// failing filesystem — short writes, an error on the Nth write, fsync
// failures — and prove that torn or failed I/O is detected and surfaced
// rather than silently acknowledged. Production code uses OS, a direct
// passthrough to the os package with zero indirection cost beyond an
// interface call per syscall-bound operation.
package fsio

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// File is the writable-file surface the durability layer needs. Sync
// must not return until the data is on stable storage (fsync).
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS is the directory-level surface: creating, renaming and removing
// files, fsyncing directories, and enumerating log segments.
type FS interface {
	// CreateTemp creates a new temp file in dir (pattern as in
	// os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// OpenAppend opens the named file for appending, creating it if
	// absent.
	OpenAppend(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (fs.File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making renames and removals
	// within it durable.
	SyncDir(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(dir string, perm fs.FileMode) error
	// Truncate truncates the named (closed) file to size.
	Truncate(name string, size int64) error
}

// OS is the production FS: a passthrough to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (fs.File, error) { return os.Open(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SweepTemp removes orphaned files in dir whose base name starts with
// any of the given prefixes — the leftovers of a crash between "write
// temp file" and "rename into place" in the atomic-replace protocol
// (persist snapshots, extent writes). It returns the paths removed.
//
// SweepTemp must only run at startup, before any writer is active in
// dir: a live writer's in-flight temp file is indistinguishable from an
// orphan. A missing dir is not an error (nothing to sweep).
func SweepTemp(fsys FS, dir string, prefixes ...string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		for _, p := range prefixes {
			if p != "" && strings.HasPrefix(name, p) {
				path := filepath.Join(dir, name)
				if err := fsys.Remove(path); err != nil {
					return removed, err
				}
				removed = append(removed, path)
				break
			}
		}
	}
	if len(removed) > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// readChunk is the most ReadN allocates ahead of the bytes that fill it.
const readChunk = 1 << 16

// ReadN reads n bytes in chunks of at most 64 KiB, growing the result as
// they arrive: a size field in untrusted input (an index file, a log
// frame header) that claims more than the input holds ends at EOF
// having allocated for the bytes present only. On an error it returns
// the bytes it did read with it.
func ReadN(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		k := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, k)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

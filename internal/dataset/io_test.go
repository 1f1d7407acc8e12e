package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"pqfastscan/internal/vec"
)

// allocated returns the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadVecs: every input, read as .fvecs, .bvecs and .ivecs, is an
// error or a well-formed result — rows of one positive dimension (or
// none), which written back out give the input byte for byte — never a
// panic, and an input under 64 KiB allocates at most 1 MiB plus twice
// its size, whatever its record headers claim: a seed is the 4-byte
// header of 2²⁰ components with no body.
func FuzzReadVecs(f *testing.F) {
	var fvecs, bvecs, ivecs bytes.Buffer
	if err := WriteFvecs(&fvecs, NewGenerator(Config{Seed: 9, Dim: 16}).Generate(33)); err != nil {
		f.Fatal(err)
	}
	if err := WriteBvecs(&bvecs, NewGenerator(Config{Seed: 10}).Generate(17)); err != nil {
		f.Fatal(err)
	}
	if err := WriteIvecs(&ivecs, [][]int64{{1, 2, 3}, {}, {42}}); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		fvecs.Bytes(), bvecs.Bytes(), ivecs.Bytes(),
		{0xff, 0xff, 0xff, 0xff},
		{4, 0, 0, 0, 1, 2},
		binary.LittleEndian.AppendUint32(nil, maxDim),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 64<<10 {
			return
		}
		budget := uint64(1<<20 + 2*len(data))
		check := func(format string, read func() error, write func(*bytes.Buffer) error) {
			var err error
			if n := allocated(func() { err = read() }); n > budget {
				t.Fatalf("%s: a %d-byte input allocated %d bytes", format, len(data), n)
			}
			if err != nil {
				return
			}
			var out bytes.Buffer
			if err := write(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s: %x reads as what writes %x", format, data, out.Bytes())
			}
		}
		matrix := func(format string, read func() (vec.Matrix, error), write func(io.Writer, vec.Matrix) error) {
			var m vec.Matrix
			check(format, func() (err error) {
				m, err = read()
				return err
			}, func(out *bytes.Buffer) error {
				if m.Dim < 0 || m.Dim > maxDim || (m.Dim == 0) != (len(m.Data) == 0) || (m.Dim > 0 && len(m.Data)%m.Dim != 0) {
					t.Fatalf("%s: a %d-float matrix of dimension %d", format, len(m.Data), m.Dim)
				}
				return write(out, m)
			})
		}
		matrix("fvecs", func() (vec.Matrix, error) { return ReadFvecs(bytes.NewReader(data), 0) }, WriteFvecs)
		matrix("bvecs", func() (vec.Matrix, error) { return ReadBvecs(bytes.NewReader(data), 0) }, WriteBvecs)
		var rows [][]int64
		check("ivecs", func() (err error) {
			rows, err = ReadIvecs(bytes.NewReader(data), 0)
			return err
		}, func(out *bytes.Buffer) error { return WriteIvecs(out, rows) })
	})
}

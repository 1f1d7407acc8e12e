package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pqfastscan/internal/fsio"
	"pqfastscan/internal/vec"
)

// This file implements the TEXMEX corpus file formats used by
// ANN_SIFT1B (http://corpus-texmex.irisa.fr/, §5.1 of the paper):
//
//	.fvecs — each vector is a little-endian int32 dimension d followed by
//	         d float32 components;
//	.bvecs — int32 dimension followed by d uint8 components (SIFT bytes);
//	.ivecs — int32 dimension followed by d int32 entries (ground truth).
//
// Implementing the real formats keeps the CLI tools drop-in compatible
// with the public corpus should it be available.

// WriteFvecs writes every row of m to w in .fvecs format.
func WriteFvecs(w io.Writer, m vec.Matrix) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 4+4*m.Dim)
	binary.LittleEndian.PutUint32(buf, uint32(m.Dim))
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for d, v := range row {
			binary.LittleEndian.PutUint32(buf[4+4*d:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("dataset: writing fvecs: %w", err)
		}
	}
	return bw.Flush()
}

// ReadFvecs reads all vectors from r. maxVectors <= 0 reads to EOF.
func ReadFvecs(r io.Reader, maxVectors int) (vec.Matrix, error) {
	return readMatrix(r, maxVectors, "fvecs", 4, func(data []float32, body []byte) []float32 {
		for i := 0; i < len(body); i += 4 {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(body[i:])))
		}
		return data
	})
}

// WriteBvecs writes every row of m to w in .bvecs format, rounding
// components to the nearest byte (SIFT descriptors are byte-valued).
func WriteBvecs(w io.Writer, m vec.Matrix) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 4+m.Dim)
	binary.LittleEndian.PutUint32(buf, uint32(m.Dim))
	for i := 0; i < m.Rows(); i++ {
		for d, v := range m.Row(i) {
			x := int(v + 0.5)
			if x < 0 {
				x = 0
			}
			if x > 255 {
				x = 255
			}
			buf[4+d] = uint8(x)
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("dataset: writing bvecs: %w", err)
		}
	}
	return bw.Flush()
}

// ReadBvecs reads byte vectors from r into a float32 matrix.
// maxVectors <= 0 reads to EOF.
func ReadBvecs(r io.Reader, maxVectors int) (vec.Matrix, error) {
	return readMatrix(r, maxVectors, "bvecs", 1, func(data []float32, body []byte) []float32 {
		for _, b := range body {
			data = append(data, float32(b))
		}
		return data
	})
}

// WriteIvecs writes integer id lists (e.g. ground truth) in .ivecs format.
func WriteIvecs(w io.Writer, rows [][]int64) error {
	bw := bufio.NewWriter(w)
	for _, row := range rows {
		var head [4]byte
		binary.LittleEndian.PutUint32(head[:], uint32(len(row)))
		if _, err := bw.Write(head[:]); err != nil {
			return fmt.Errorf("dataset: writing ivecs: %w", err)
		}
		var cell [4]byte
		for _, v := range row {
			binary.LittleEndian.PutUint32(cell[:], uint32(int32(v)))
			if _, err := bw.Write(cell[:]); err != nil {
				return fmt.Errorf("dataset: writing ivecs: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadIvecs reads integer id lists from r. maxRows <= 0 reads to EOF.
func ReadIvecs(r io.Reader, maxRows int) ([][]int64, error) {
	var out [][]int64
	err := readVecs(r, maxRows, "ivecs", 4, 0, func(body []byte) error {
		row := make([]int64, len(body)/4)
		for i := range row {
			row[i] = int64(int32(binary.LittleEndian.Uint32(body[4*i:])))
		}
		out = append(out, row)
		return nil
	})
	return out, err
}

// readMatrix reads .fvecs or .bvecs records of one dimension into a
// matrix, appendRow decoding each record's width-byte components.
func readMatrix(r io.Reader, maxVectors int, format string, width int, appendRow func(data []float32, body []byte) []float32) (vec.Matrix, error) {
	var data []float32
	dim := 0
	err := readVecs(r, maxVectors, format, width, 1, func(body []byte) error {
		d := len(body) / width
		if dim == 0 {
			dim = d
		} else if d != dim {
			return fmt.Errorf("dataset: inconsistent %s dimensions %d and %d", format, dim, d)
		}
		data = appendRow(data, body)
		return nil
	})
	if err != nil {
		return vec.Matrix{}, err
	}
	return vec.Matrix{Data: data, Dim: dim}, nil
}

// maxDim bounds a record's component count.
const maxDim = 1 << 20

// readVecs is the record loop of the three formats: an int32 count d in
// [minDim, maxDim], then d components of width bytes, handed to row. It
// stops at EOF between records, or after maxRows records when maxRows
// is positive. A body is read through fsio.ReadN, so a count that
// claims more than the input holds ends at EOF having allocated for the
// bytes present only.
func readVecs(r io.Reader, maxRows int, format string, width, minDim int, row func(body []byte) error) error {
	br := bufio.NewReader(r)
	var head [4]byte
	for n := 0; maxRows <= 0 || n < maxRows; n++ {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("dataset: reading %s header: %w", format, err)
		}
		d := int(int32(binary.LittleEndian.Uint32(head[:])))
		if d < minDim || d > maxDim {
			return fmt.Errorf("dataset: implausible %s dimension %d", format, d)
		}
		body, err := fsio.ReadN(br, width*d)
		if err != nil {
			return fmt.Errorf("dataset: reading %s body: %w", format, err)
		}
		if err := row(body); err != nil {
			return err
		}
	}
	return nil
}

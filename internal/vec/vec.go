// Package vec implements the dense float32 vector operations that underpin
// quantizer training and exact distance computation.
//
// The paper works exclusively with squared Euclidean distances ("We consider
// squared distances as they avoid a square root computation while preserving
// the order", §2.2); this package follows that convention everywhere.
package vec

import (
	"math"

	"pqfastscan/internal/simd/dispatch"
)

// L2Squared returns the squared Euclidean distance between a and b.
// It panics if the slices have different lengths.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dimensionality mismatch")
	}
	var sum float32
	for i, av := range a {
		d := av - b[i]
		sum += d * d
	}
	return sum
}

// SquaredNorm returns the squared Euclidean norm of a.
func SquaredNorm(a []float32) float32 {
	var sum float32
	for _, v := range a {
		sum += v * v
	}
	return sum
}

// Add accumulates src into dst element-wise. It panics on length mismatch.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("vec: dimensionality mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Scale multiplies every element of dst by s.
func Scale(dst []float32, s float32) {
	for i := range dst {
		dst[i] *= s
	}
}

// Zero sets every element of dst to zero.
func Zero(dst []float32) {
	for i := range dst {
		dst[i] = 0
	}
}

// Copy returns a freshly allocated copy of a.
func Copy(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// ArgminL2 returns the index of the centroid (row of centroids, each of
// length dim) closest to x in squared Euclidean distance, along with that
// distance. It panics if centroids is empty or misaligned with dim.
func ArgminL2(x []float32, centroids []float32, dim int) (best int, bestDist float32) {
	if dim <= 0 || len(centroids) == 0 || len(centroids)%dim != 0 {
		panic("vec: invalid centroid matrix")
	}
	k := len(centroids) / dim
	bestDist = float32(math.Inf(1))
	for c := 0; c < k; c++ {
		row := centroids[c*dim : (c+1)*dim]
		var d float32
		for i, xv := range x {
			t := xv - row[i]
			d += t * t
			if d > bestDist {
				break // early abandon: partial sums only grow
			}
		}
		if d < bestDist {
			bestDist = d
			best = c
		}
	}
	return best, bestDist
}

// ArgminL2Rows finds the nearest centroid of n rows at once, n =
// len(best): row i is xs[i*stride : i*stride+dim], and
//
//	best[i], dists[i] = ArgminL2(row i, centroids, dim)
//
// which is its definition, bit for bit, index and distance. dists may
// be nil when only the indexes are wanted. A stride above dim lets a
// caller pass one sub-vector of every row of a wider matrix (a PQ
// subspace) without copying it out.
//
// While asm-avx2 is the active backend the rows go eight at a time
// through dispatch.ArgminL2x8, one row per vector lane, transposed into
// a scratch block here; a short last batch is padded with copies of its
// first row, whose lanes are discarded. Elsewhere it is the scalar loop.
func ArgminL2Rows(xs []float32, stride, dim int, centroids []float32, best []int, dists []float32) {
	n := len(best)
	if dim <= 0 || len(centroids) == 0 || len(centroids)%dim != 0 {
		panic("vec: invalid centroid matrix")
	}
	if stride < dim || (n > 0 && len(xs) < (n-1)*stride+dim) || (dists != nil && len(dists) != n) {
		panic("vec: invalid row block")
	}
	var stack [8 * 128]float32
	xt := stack[:]
	if 8*dim > len(xt) {
		xt = make([]float32, 8*dim)
	}
	var b8 [8]int32
	var d8 [8]float32
	i := 0
	for ; i < n; i += 8 {
		lanes := min(8, n-i)
		for l := 0; l < 8; l++ {
			r := i + l
			if l >= lanes {
				r = i // padding: a copy of a real row
			}
			for d, v := range xs[r*stride : r*stride+dim] {
				xt[d*8+l] = v
			}
		}
		if !dispatch.ArgminL2x8(xt, centroids, dim, &b8, &d8) {
			break
		}
		for l := 0; l < lanes; l++ {
			best[i+l] = int(b8[l])
			if dists != nil {
				dists[i+l] = d8[l]
			}
		}
	}
	for ; i < n; i++ {
		c, d := ArgminL2(xs[i*stride:i*stride+dim], centroids, dim)
		best[i] = c
		if dists != nil {
			dists[i] = d
		}
	}
}

// Matrix is a dense row-major matrix of float32 vectors sharing one backing
// slice, the layout used for training sets and codebooks.
type Matrix struct {
	Data []float32
	Dim  int
}

// NewMatrix allocates an n x dim matrix.
func NewMatrix(n, dim int) Matrix {
	return Matrix{Data: make([]float32, n*dim), Dim: dim}
}

// Rows returns the number of row vectors.
func (m Matrix) Rows() int {
	if m.Dim == 0 {
		return 0
	}
	return len(m.Data) / m.Dim
}

// Row returns the i-th row as a slice aliasing the backing array.
func (m Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : (i+1)*m.Dim]
}

// SubColumns returns a new matrix holding columns [lo, hi) of every row.
// It is used to slice training vectors into the per-sub-quantizer
// sub-vectors u_j(x) of §2.1.
func (m Matrix) SubColumns(lo, hi int) Matrix {
	if lo < 0 || hi > m.Dim || lo >= hi {
		panic("vec: invalid column range")
	}
	n := m.Rows()
	sub := NewMatrix(n, hi-lo)
	for i := 0; i < n; i++ {
		copy(sub.Row(i), m.Row(i)[lo:hi])
	}
	return sub
}

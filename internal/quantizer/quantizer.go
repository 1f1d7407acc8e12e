// Package quantizer implements vector quantization and product
// quantization (paper §2.1), Asymmetric Distance Computation through
// per-query distance tables (paper §2.2, Equations 1-3), and the
// optimized assignment of sub-quantizer centroid indexes that PQ Fast
// Scan layers on top (paper §4.3).
package quantizer

import (
	"fmt"
	"math"

	"pqfastscan/internal/kmeans"
	"pqfastscan/internal/par"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/vec"
)

// Config selects a product quantizer configuration PQ m×b with m
// sub-quantizers of 2^b centroids each. Any configuration with m·b = 64
// yields 2^64 centroids total; the paper studies PQ 16×4, PQ 8×8 and
// PQ 4×16 (its Table 1) and adopts PQ 8×8 as "the best performance
// tradeoff, and ... the most commonly used configuration".
type Config struct {
	M    int // number of sub-quantizers
	Bits int // bits per sub-quantizer index, k* = 2^Bits
}

// PQ8x8 is the paper's primary configuration.
var PQ8x8 = Config{M: 8, Bits: 8}

// PQ16x4 and PQ4x16 are the alternative 64-bit configurations of Table 1.
var (
	PQ16x4 = Config{M: 16, Bits: 4}
	PQ4x16 = Config{M: 4, Bits: 16}
)

// KStar returns the number of centroids per sub-quantizer.
func (c Config) KStar() int { return 1 << c.Bits }

// CodeBits returns the total code size in bits (m · b).
func (c Config) CodeBits() int { return c.M * c.Bits }

// TableBytes returns the memory footprint of the m distance tables for
// this configuration: m × k* × sizeof(float32). This is the quantity the
// paper compares against cache-level capacities in Table 1.
func (c Config) TableBytes() int { return c.M * c.KStar() * 4 }

// String implements fmt.Stringer with the paper's PQ m×log2(k*) notation.
func (c Config) String() string { return fmt.Sprintf("PQ %dx%d", c.M, c.Bits) }

// ProductQuantizer is a trained product quantizer q_p: it splits a
// d-dimensional vector into M sub-vectors of d/M dimensions and encodes
// each with its own codebook C_j of k* centroids.
type ProductQuantizer struct {
	Config
	Dim       int          // input dimensionality d
	SubDim    int          // sub-vector dimensionality d* = d/M
	Codebooks []vec.Matrix // M codebooks, each k* x SubDim
}

// TrainOptions controls product quantizer learning.
type TrainOptions struct {
	MaxIter int
	Seed    uint64
}

// Train learns a product quantizer for cfg on the rows of data. The input
// dimensionality must be a multiple of cfg.M ("d is a multiple of m",
// §2.1) and the training set must contain at least k* vectors.
func Train(data vec.Matrix, cfg Config, opt TrainOptions) (*ProductQuantizer, error) {
	dim := data.Dim
	if cfg.M <= 0 || cfg.Bits <= 0 {
		return nil, fmt.Errorf("quantizer: invalid config %+v", cfg)
	}
	if dim%cfg.M != 0 {
		return nil, fmt.Errorf("quantizer: dimensionality %d not a multiple of m=%d", dim, cfg.M)
	}
	pq := &ProductQuantizer{
		Config:    cfg,
		Dim:       dim,
		SubDim:    dim / cfg.M,
		Codebooks: make([]vec.Matrix, cfg.M),
	}
	// The sub-quantizers are independent, each with its own seed, so
	// training them concurrently yields the codebooks a serial loop does.
	errs := make([]error, cfg.M)
	par.For(cfg.M, func(j int) {
		sub := data.SubColumns(j*pq.SubDim, (j+1)*pq.SubDim)
		res, err := kmeans.Train(sub, kmeans.Config{
			K:       cfg.KStar(),
			MaxIter: opt.MaxIter,
			Seed:    opt.Seed + uint64(j)*0x9e3779b97f4a7c15,
		})
		if err != nil {
			errs[j] = fmt.Errorf("quantizer: sub-quantizer %d: %w", j, err)
			return
		}
		pq.Codebooks[j] = res.Centroids
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pq, nil
}

// Encode writes pqcode(x) into code, which must have length M. Each entry
// is the index of the closest centroid of the corresponding sub-quantizer.
// Codes are one byte per index, so Encode is restricted to Bits <= 8
// configurations (the scan kernels all operate on PQ 8×8; PQ 16×4 and
// PQ 4×16 appear only in the Table 1 capacity analysis).
func (pq *ProductQuantizer) Encode(x []float32, code []uint8) {
	if len(x) != pq.Dim {
		panic("quantizer: dimensionality mismatch")
	}
	if len(code) != pq.M {
		panic("quantizer: code length mismatch")
	}
	pq.EncodeRows(x, code)
}

// rowSlab is the rows EncodeRows hands vec.ArgminL2Rows per
// subspace: its index scratch lives on the stack.
const rowSlab = 64

// EncodeRows encodes n rows at once, n = len(codes)/M: row i is
// xs[i*Dim : (i+1)*Dim] and its code goes to codes[i*M : (i+1)*M]. Each
// subspace of a slab of rows is one vec.ArgminL2Rows call against its
// codebook, so the codes are Encode's, row by row, bit for bit, on the
// eight-row nearest-centroid kernel where the active backend has it.
func (pq *ProductQuantizer) EncodeRows(xs []float32, codes []uint8) {
	if pq.Bits > 8 {
		panic("quantizer: Encode supports at most 8 bits per index")
	}
	m, sd := pq.M, pq.SubDim
	n := len(codes) / m
	if len(codes) != n*m || len(xs) != n*pq.Dim {
		panic("quantizer: dimensionality mismatch")
	}
	var best [rowSlab]int
	for lo := 0; lo < n; lo += rowSlab {
		hi := min(lo+rowSlab, n)
		rows := xs[lo*pq.Dim : hi*pq.Dim]
		for j := 0; j < m; j++ {
			idx := best[:hi-lo]
			vec.ArgminL2Rows(rows[j*sd:], pq.Dim, sd, pq.Codebooks[j].Data, idx, nil)
			for i, c := range idx {
				codes[(lo+i)*m+j] = uint8(c)
			}
		}
	}
}

// EncodeAll encodes every row of data, returning a dense n x M code array.
func (pq *ProductQuantizer) EncodeAll(data vec.Matrix) []uint8 {
	codes := make([]uint8, data.Rows()*pq.M)
	pq.EncodeRows(data.Data, codes)
	return codes
}

// Decode reconstructs the centroid concatenation q_p(x) for code into dst
// (length Dim).
func (pq *ProductQuantizer) Decode(code []uint8, dst []float32) {
	if len(code) != pq.M || len(dst) != pq.Dim {
		panic("quantizer: decode size mismatch")
	}
	for j := 0; j < pq.M; j++ {
		copy(dst[j*pq.SubDim:(j+1)*pq.SubDim], pq.Codebooks[j].Row(int(code[j])))
	}
}

// Tables holds the m per-query distance tables D_j of Equation 2: entry
// (j, i) is the squared distance between the j-th sub-vector of the query
// and centroid i of sub-quantizer j. The backing array is flat so a table
// row is one contiguous cache-friendly block, as in the paper's Figure 2.
type Tables struct {
	M, KStar int
	Data     []float32 // M * KStar entries, row j at [j*KStar, (j+1)*KStar)
}

// Row returns distance table D_j.
func (t Tables) Row(j int) []float32 {
	return t.Data[j*t.KStar : (j+1)*t.KStar]
}

// Min returns the smallest entry across all tables, the paper's qmin
// bound ("We set qmin to the minimum value across all distance tables",
// §4.4).
func (t Tables) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxSum returns the sum over tables of each table's maximum, the largest
// representable ADC distance (the loose qmax candidate the paper rejects
// in §4.4).
func (t Tables) MaxSum() float32 {
	var sum float32
	for j := 0; j < t.M; j++ {
		row := t.Row(j)
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		sum += m
	}
	return sum
}

// DistanceTables computes the m distance tables for query (Equation 2)
// in its direct form, one L2 per entry. It is the reference the factored
// residual tables of internal/index are tested against, and what callers
// without a coarse quantizer use; the IVFADC query path does not call it.
func (pq *ProductQuantizer) DistanceTables(query []float32) Tables {
	if len(query) != pq.Dim {
		panic("quantizer: dimensionality mismatch")
	}
	t := Tables{M: pq.M, KStar: pq.KStar(), Data: make([]float32, pq.M*pq.KStar())}
	for j := 0; j < pq.M; j++ {
		sub := query[j*pq.SubDim : (j+1)*pq.SubDim]
		row := t.Row(j)
		cb := pq.Codebooks[j]
		for i := 0; i < pq.KStar(); i++ {
			row[i] = vec.L2Squared(sub, cb.Row(i))
		}
	}
	return t
}

// InnerProducts writes ⟨x_j, p_ji⟩ — the inner product of the j-th
// sub-vector of x with centroid i of sub-quantizer j — into dst, laid
// out like Tables.Data (M·k* entries, row j at [j·k*, (j+1)·k*)). Since
// ‖x_j − p‖² = ‖x_j‖² + ‖p‖² − 2⟨x_j, p⟩, it is the only per-vector work
// a distance table needs once the centroid norms are known, which is
// what lets internal/index split a residual table into a per-cell and a
// per-query part.
//
// innerProductsRow is the definition. Where the active backend has a
// kernel for the shape — asm-avx2, SubDim a multiple of 4 and k* of 8 —
// each row runs on dispatch.InnerProducts instead, which performs the
// same float operations in the same order (DESIGN.md §6); dst is a
// pure function of (pq, x) either way.
func (pq *ProductQuantizer) InnerProducts(x, dst []float32) {
	k, sd := pq.KStar(), pq.SubDim
	if len(x) != pq.Dim || len(dst) != pq.M*k {
		panic("quantizer: dimensionality mismatch")
	}
	for j := 0; j < pq.M; j++ {
		sub := x[j*sd : (j+1)*sd]
		cb := pq.Codebooks[j].Data
		row := dst[j*k : (j+1)*k]
		if !dispatch.InnerProducts(sub, cb, row) {
			innerProductsRow(sub, cb, row)
		}
	}
}

// innerProductsRow writes row[i] = ⟨sub, centroid i of cb⟩. Centroids
// are taken two at a time with four accumulators each, p_r summing the
// products of dimensions d ≡ r (mod 4) in ascending d, combined as
// (p0+p1)+(p2+p3); eight multiply-add chains are in flight where
// vec.L2Squared has one. A SubDim that is not a multiple of 4 adds its
// last dimensions into p0.
func innerProductsRow(sub, cb, row []float32) {
	sd := len(sub)
	for i := 0; i+1 < len(row); i += 2 { // k* is a power of two ≥ 2
		p := cb[i*sd : (i+1)*sd : (i+1)*sd]
		q := cb[(i+1)*sd : (i+2)*sd : (i+2)*sd]
		var p0, p1, p2, p3, q0, q1, q2, q3 float32
		d := 0
		for ; d+4 <= len(sub) && d+4 <= len(p) && d+4 <= len(q); d += 4 {
			x0, x1, x2, x3 := sub[d], sub[d+1], sub[d+2], sub[d+3]
			p0 += x0 * p[d]
			p1 += x1 * p[d+1]
			p2 += x2 * p[d+2]
			p3 += x3 * p[d+3]
			q0 += x0 * q[d]
			q1 += x1 * q[d+1]
			q2 += x2 * q[d+2]
			q3 += x3 * q[d+3]
		}
		for ; d < len(sub); d++ {
			p0 += sub[d] * p[d]
			q0 += sub[d] * q[d]
		}
		row[i] = (p0 + p1) + (p2 + p3)
		row[i+1] = (q0 + q1) + (q2 + q3)
	}
}

// CentroidNorms returns ‖p_ji‖² for every centroid, laid out like
// Tables.Data. It is a property of the trained codebooks alone; callers
// compute it once and keep it.
func (pq *ProductQuantizer) CentroidNorms() []float32 {
	k := pq.KStar()
	norms := make([]float32, pq.M*k)
	for j, cb := range pq.Codebooks {
		for i := 0; i < k; i++ {
			norms[j*k+i] = vec.SquaredNorm(cb.Row(i))
		}
	}
	return norms
}

// ADC computes the asymmetric distance approximation of Equation 3:
// d~(p, y) = Σ_j D_j[p[j]].
func ADC(code []uint8, t Tables) float32 {
	var d float32
	for j := 0; j < t.M; j++ {
		d += t.Data[j*t.KStar+int(code[j])]
	}
	return d
}

// OptimizeAssignment computes the paper's §4.3 optimized assignment of
// centroid indexes for every sub-quantizer: the k* centroids of each
// codebook are clustered into 16 same-size clusters of k*/16 members
// (same-size k-means, reference [24]), and members of one cluster receive
// consecutive indexes so each 16-index distance-table portion covers
// nearby centroids.
//
// It returns, per sub-quantizer, the permutation oldToNew mapping original
// centroid indexes to their new positions, and mutates the codebooks in
// place. Codes produced by the pre-permutation quantizer can be migrated
// with TranslateCodes; newly encoded vectors use the new assignment
// automatically.
func (pq *ProductQuantizer) OptimizeAssignment(seed uint64) ([][]int, error) {
	if pq.KStar()%16 != 0 {
		return nil, fmt.Errorf("quantizer: k*=%d not divisible into 16 portions", pq.KStar())
	}
	perms := make([][]int, pq.M)
	for j := 0; j < pq.M; j++ {
		clusters, err := kmeans.SameSize(pq.Codebooks[j], 16, seed+uint64(j))
		if err != nil {
			return nil, fmt.Errorf("quantizer: sub-quantizer %d: %w", j, err)
		}
		oldToNew := make([]int, pq.KStar())
		next := make([]int, 16)
		portion := pq.KStar() / 16
		for c := 1; c < 16; c++ {
			next[c] = c * portion
		}
		for old, cl := range clusters {
			oldToNew[old] = next[cl]
			next[cl]++
		}
		// Rebuild the codebook in the new order.
		newCB := vec.NewMatrix(pq.KStar(), pq.SubDim)
		for old := 0; old < pq.KStar(); old++ {
			copy(newCB.Row(oldToNew[old]), pq.Codebooks[j].Row(old))
		}
		pq.Codebooks[j] = newCB
		perms[j] = oldToNew
	}
	return perms, nil
}

// TranslateCodes rewrites codes encoded before OptimizeAssignment so they
// reference the permuted codebooks. codes is a dense n x M array.
func (pq *ProductQuantizer) TranslateCodes(codes []uint8, perms [][]int) {
	if len(perms) != pq.M {
		panic("quantizer: permutation count mismatch")
	}
	for i := 0; i < len(codes); i += pq.M {
		for j := 0; j < pq.M; j++ {
			codes[i+j] = uint8(perms[j][codes[i+j]])
		}
	}
}

// QuantizationError returns the mean squared reconstruction error of pq
// over the rows of data, a standard quality proxy used in tests.
func (pq *ProductQuantizer) QuantizationError(data vec.Matrix) float64 {
	n := data.Rows()
	if n == 0 {
		return 0
	}
	code := make([]uint8, pq.M)
	recon := make([]float32, pq.Dim)
	total := 0.0
	for i := 0; i < n; i++ {
		pq.Encode(data.Row(i), code)
		pq.Decode(code, recon)
		total += float64(vec.L2Squared(data.Row(i), recon))
	}
	return total / float64(n)
}

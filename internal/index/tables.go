// Residual distance tables, factored (Step 2 of Algorithm 1).
//
// Codes are pqcodes of residuals x − c(x), so scanning cell c needs the
// tables of q − c: a different table for every probed cell. Per
// sub-space j and centroid p, with c_j the j-th sub-vector of the cell's
// coarse centroid (Jégou et al. [14], §IV):
//
//	‖(q_j − c_j) − p‖² = ‖q_j − c_j‖² + (‖p‖² + 2⟨c_j, p⟩) − 2⟨q_j, p⟩
//	                     row constant    cell term            query term
//
// The cell term depends on the trained quantizers alone: the index
// computes it once per cell when it is assembled (cellTerms). The query
// term is the one M×k* pass of inner products a query pays, on its first
// probe (QueryTerm). Every probed cell's table is then one fused pass
// over M·k* floats (CellTables). Both the allocating Index.Tables and
// the serving path's per-query scratch go through those two functions,
// so they produce the same bits.
package index

import (
	"sync"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
	"pqfastscan/internal/vec"
)

// newIndex assembles an index around trained quantizers, precomputing
// the per-cell table terms; Build, Restore and RestrictCells all come
// through here, so an index cannot exist without them. The terms cover
// every cell of the global numbering (cells × M × k* float32, 8 KiB per
// cell for PQ 8×8) whatever subset of cells holds data, are immutable,
// and are derived state: never persisted.
func newIndex(dim int, coarse vec.Matrix, pq *quantizer.ProductQuantizer, opt Options) *Index {
	n := pq.M * pq.KStar()
	norms := pq.CentroidNorms()
	terms := make([]float32, coarse.Rows()*n)
	for c := 0; c < coarse.Rows(); c++ {
		t := terms[c*n : (c+1)*n]
		pq.InnerProducts(coarse.Row(c), t)
		for i, ip := range t {
			t[i] = norms[i] + 2*ip
		}
	}
	return &Index{Dim: dim, Coarse: coarse, PQ: pq, opt: opt, cellTerms: terms}
}

// QueryTerm writes the query's part of every residual table,
// −2⟨q_j, p_ji⟩, into dst (M·k* entries, laid out like Tables.Data).
// It does not depend on the cell, so a query computes it once.
func (ix *Index) QueryTerm(query, dst []float32) {
	ix.PQ.InnerProducts(query, dst)
	for i, ip := range dst {
		dst[i] = -2 * ip
	}
}

// CellTables writes the distance tables for scanning cell part into dst
// and returns them: per row the constant ‖q_j − c_j‖² plus the
// precomputed cell term plus qterm, the query's QueryTerm. Rounding can
// carry the sum of the three a hair below zero where the true value — a
// squared distance — is near zero, so entries are clamped at 0
// (cellEntry; a row runs on dispatch.CellRow where the active backend
// has the kernel). The returned Tables alias dst.
func (ix *Index) CellTables(query []float32, part int, qterm, dst []float32) quantizer.Tables {
	k, sd := ix.PQ.KStar(), ix.PQ.SubDim
	n := ix.PQ.M * k
	cRow := ix.Coarse.Row(part)
	cell := ix.cellTerms[part*n : (part+1)*n]
	qterm, dst = qterm[:n], dst[:n]
	for j := 0; j < ix.PQ.M; j++ {
		rowConst := vec.L2Squared(query[j*sd:(j+1)*sd], cRow[j*sd:(j+1)*sd])
		ct := cell[j*k : (j+1)*k]
		qt := qterm[j*k : (j+1)*k : (j+1)*k]
		row := dst[j*k : (j+1)*k : (j+1)*k]
		if dispatch.CellRow(rowConst, ct, qt, row) {
			continue
		}
		for i, cv := range ct {
			row[i] = cellEntry(rowConst, cv, qt[i])
		}
	}
	return quantizer.Tables{M: ix.PQ.M, KStar: k, Data: dst}
}

// cellEntry is one entry of a cell's tables: the row constant plus the
// cell term plus the query term, in that order, a sum below zero
// clamped to +0. It is the Go body of the row loop, which the assembly
// backends run on dispatch.CellRow, to the bit.
func cellEntry(rowConst, cellTerm, queryTerm float32) float32 {
	v := rowConst + cellTerm + queryTerm
	if v < 0 {
		v = 0
	}
	return v
}

// Tables computes the per-query distance tables for scanning partition
// part (Step 2 of Algorithm 1): the tables of the query's residual
// against that partition's coarse centroid, in freshly allocated
// storage. It is the allocating form of what a query does through its
// scratch, entry for entry.
func (ix *Index) Tables(query []float32, part int) quantizer.Tables {
	n := ix.PQ.M * ix.PQ.KStar()
	qterm := make([]float32, n)
	ix.QueryTerm(query, qterm)
	return ix.CellTables(query, part, qterm, make([]float32, n))
}

// queryScratch is everything one query owns for its whole life: the
// scan's buffers, the running top-k every probed cell pushes into, the
// query term (built on the first probe, reused by every later one) and
// the storage each probed cell's tables are written into. Tables
// returned by tables alias it and are overwritten by the next probe;
// the answer is copied out of heap before the scratch goes back.
type queryScratch struct {
	scan      *scan.Scratch
	heap      *topk.Heap
	qterm     []float32
	table     []float32
	haveQTerm bool
}

// scratchPool recycles query scratches across queries and goroutines,
// keeping the steady-state query free of heap, table and scan-buffer
// allocations without tying a scratch to any one Searcher.
var scratchPool = sync.Pool{New: func() any {
	return &queryScratch{scan: scan.NewScratch(), heap: topk.New(1)}
}}

// getScratch takes a scratch for one query of ix from the pool; the
// caller returns it with scratchPool.Put once nothing aliases it.
func (ix *Index) getScratch() *queryScratch {
	qs := scratchPool.Get().(*queryScratch)
	if n := ix.PQ.M * ix.PQ.KStar(); len(qs.qterm) != n {
		qs.qterm, qs.table = make([]float32, n), make([]float32, n)
	}
	qs.haveQTerm = false
	return qs
}

// tables returns the distance tables for scanning cell part, building
// the query term if this is the query's first probe.
func (ix *Index) tables(qs *queryScratch, query []float32, part int) quantizer.Tables {
	if !qs.haveQTerm {
		ix.QueryTerm(query, qs.qterm)
		qs.haveQTerm = true
	}
	return ix.CellTables(query, part, qs.qterm, qs.table)
}

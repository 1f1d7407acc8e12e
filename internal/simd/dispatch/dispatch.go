// Package dispatch selects, at startup, the block-kernel backend PQ
// Fast Scan (internal/scan) runs on. A backend lower-bounds one group's
// blocks and takes their prune decision; internal/scan runs one block
// loop around whichever backend is selected. The backends come in two
// bounds:
//
//   - the paper's minimum-table bound (defined by AccumulateGeneric):
//     asm-avx2 (Accumulate), hand-written amd64 assembly over 32-byte
//     ymm registers (VPSHUFB/VPADDUSB/VPMINUB), two 16-lane blocks an
//     iteration; and swar, the portable uint64 pair-LUT pipeline in
//     internal/scan, always available;
//   - the exact 8-bit bound (defined by AccumulateExactGeneric):
//     asm-avx512vbmi (AccumulateExact), which looks every ungrouped
//     component up in its whole 256-entry quantized row with two
//     two-table byte permutes (VPERMT2B), four blocks an iteration.
//
// Selection is by CPU feature detection (CPUID on amd64; every other
// architecture runs swar), the preferred available backend first,
// overridable with the PQ_FORCE_BACKEND environment variable (Force in
// tests and benchmarks). Active is the one place a backend is read: a
// scan reads it once, at its start, and the backend is the process's,
// never a query's. Every backend returns the same results, bit for bit;
// backends of one bound also return the same statistics — the DESIGN.md
// §9 contract between the engine and its model, extended down to the
// instruction level (DESIGN.md §12).
package dispatch

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Backend names one block-kernel implementation. The zero value Auto
// names the startup selection (Active) in PQ_FORCE_BACKEND and Force.
type Backend uint8

const (
	// Auto is the feature-detected selection.
	Auto Backend = iota
	// SWAR is the portable uint64 block pipeline inside internal/scan.
	SWAR
	// AVX2 is the amd64 assembly backend (requires AVX2 CPU support).
	AVX2
	// AVX512VBMI is the amd64 assembly backend of the exact 8-bit bound
	// (requires AVX-512 F, BW and VBMI, and AVX2 for the kernels it
	// shares with AVX2).
	AVX512VBMI
)

// String returns the stable name used by PQ_FORCE_BACKEND, bench JSON
// documents and the server's /stats.
func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case SWAR:
		return "swar"
	case AVX2:
		return "asm-avx2"
	case AVX512VBMI:
		return "asm-avx512vbmi"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Parse resolves a backend by its String name.
func Parse(name string) (Backend, error) {
	for _, b := range []Backend{Auto, SWAR, AVX2, AVX512VBMI} {
		if b.String() == name {
			return b, nil
		}
	}
	return Auto, fmt.Errorf("dispatch: unknown backend %q (auto, swar, asm-avx2, asm-avx512vbmi)", name)
}

// Available reports whether b can execute on this machine. SWAR always
// can; Auto is available by definition (it resolves to something that
// is).
func (b Backend) Available() bool {
	switch b {
	case Auto, SWAR:
		return true
	case AVX2:
		return hasAVX2
	case AVX512VBMI:
		return hasAVX512VBMI
	default:
		return false
	}
}

// ExactBound reports whether the concrete backend b bounds a lane with
// the exact 8-bit bound of AccumulateExact rather than the
// minimum-table bound of Accumulate and swar; it is false for Auto.
// Backends of one bound prune the same lanes, so their scan statistics
// are equal; the two bounds prune differently and return the same
// results.
func (b Backend) ExactBound() bool { return b == AVX512VBMI }

// avx2Kernels reports whether the active backend runs the AVX2 kernels
// the assembly backends share: the query term, the nearest-centroid
// pass, the row quantization and the rows of a cell's tables.
func avx2Kernels() bool {
	be := Active()
	return be == AVX2 || be == AVX512VBMI
}

// Backends lists every concrete backend, preferred first.
func Backends() []Backend { return []Backend{AVX512VBMI, AVX2, SWAR} }

// AvailableBackends lists the concrete backends this machine can run,
// preferred first.
func AvailableBackends() []Backend {
	var out []Backend
	for _, b := range Backends() {
		if b.Available() {
			out = append(out, b)
		}
	}
	return out
}

// active is the startup selection, swappable by Force (tests).
var active atomic.Uint32

// initNote records what happened to a PQ_FORCE_BACKEND override, for
// startup logs.
var initNote string

// EnvVar is the environment variable overriding the startup backend
// selection.
const EnvVar = "PQ_FORCE_BACKEND"

func init() {
	best := SWAR
	for _, b := range Backends() {
		if b.Available() {
			best = b
			break
		}
	}
	if name := os.Getenv(EnvVar); name != "" {
		forced, err := Parse(name)
		switch {
		case err != nil:
			initNote = fmt.Sprintf("%s=%q unknown; using %s", EnvVar, name, best)
		case forced == Auto:
			// Explicit auto: the detected default.
		case !forced.Available():
			initNote = fmt.Sprintf("%s=%s unavailable on this CPU; using %s", EnvVar, forced, best)
		default:
			best = forced
		}
	}
	active.Store(uint32(best))
}

// Active returns the backend every scan runs on: the startup
// selection, or the last Force. It is never Auto.
func Active() Backend { return Backend(active.Load()) }

// Force pins the startup selection to b (the programmatic counterpart
// of PQ_FORCE_BACKEND, used by tests and benchmarks). It fails if b is
// not available on this machine; Force(Auto) restores feature-detected
// selection.
func Force(b Backend) error {
	if !b.Available() {
		return fmt.Errorf("dispatch: backend %s not available on this CPU (have %v)", b, AvailableBackends())
	}
	if b == Auto {
		b = AvailableBackends()[0]
	}
	active.Store(uint32(b))
	return nil
}

// InitNote returns a human-readable note about the startup selection
// (e.g. a PQ_FORCE_BACKEND value that could not be honored), or "".
func InitNote() string { return initNote }

// Features lists the CPU SIMD features relevant to backend selection
// that this machine reports, for bench records and /stats.
func Features() []string { return cpuFeatures() }

// Accumulate computes the PQ Fast Scan lower-bound bytes of §4.5 for
// nblocks consecutive packed blocks of one group and takes the prune
// decision of Figure 6 against thr: the minimum-table bound, on the
// asm-avx2 kernel, which the caller runs only where AVX2.Available()
// (the scan, on asm-avx2). It is bit for bit AccumulateGeneric: for
// every block b and lane i it evaluates
//
//	dst[b*16+i] = min(Σ_j table_j[idx_j(b, i)], 127)
//	masks[b] bit i = int8(dst[b*16+i]) > thr
//
// where, for grouped components j < c, idx_j is the lane's packed low
// nibble, and for ungrouped components j >= c it is the high nibble of
// the lane's full code byte — the pshufb/paddusb/pminub pipeline with
// the per-step saturating accumulation folded into min(sum, 127)
// (the two are equal for non-negative addends; DESIGN.md §12), closed
// by pcmpgtb/pmovmskb. The compare is signed, so a negative thr prunes
// every lane and 127 none. Padding lanes of a group's last block get
// mask bits like any other lane; the caller masks them off.
//
// blocks must hold nblocks packed blocks of blockBytes bytes (the group
// slice of layout.Grouped.Blocks); tables is the 8×16-byte small-table
// block (grouped windows first, then minimum tables); dst receives
// nblocks*16 lower-bound bytes and masks nblocks pruned-mask words.
func Accumulate(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	if nblocks == 0 {
		return
	}
	_ = blocks[nblocks*blockBytes-1] // bounds contract
	_ = dst[nblocks*16-1]
	_ = masks[nblocks-1]
	accumulateAVX2(&blocks[0], blockBytes, c, nblocks, thr, &tables[0], &dst[0], &masks[0])
}

// AccumulateExact is Accumulate under the exact 8-bit bound, on the
// asm-avx512vbmi kernel, which the caller runs only where
// AVX512VBMI.Available() (the scan, on asm-avx512vbmi). It is bit for
// bit AccumulateExactGeneric: it takes the same blocks and gives the
// same kind of dst bytes and masks as Accumulate, but looks each
// component up in its whole quantized distance-table row rather than in
// a 16-entry minimum table. For every block b and lane i it evaluates
//
//	dst[b*16+i] = min(Σ_j rows[j][idx_j(b, i)], 127)
//	masks[b] bit i = int8(dst[b*16+i]) > thr
//
// where for a grouped component j < c, idx_j is key[j]<<4 | the lane's
// packed nibble — an entry of the group's 16-entry window into row j —
// and for an ungrouped one j >= c it is the lane's full code byte. That
// is every lane's code looked up entry by entry: the bound the
// quantization-only ablation of §5.5 computes, and never below the
// minimum-table bound, because each entry is at least its window's
// least. key holds the group's c key nibbles (each below 16), rows the
// eight quantized rows, entries in [0, 127]; blocks, dst, masks and thr
// are as for Accumulate.
func AccumulateExact(blocks []byte, blockBytes, c, nblocks int, thr int8, key *[4]uint8, rows *[8][256]uint8, dst []byte, masks []uint16) {
	if nblocks == 0 {
		return
	}
	_ = blocks[nblocks*blockBytes-1] // bounds contract
	_ = dst[nblocks*16-1]
	_ = masks[nblocks-1]
	accumulateExactVBMI(&blocks[0], blockBytes, c, nblocks, thr, &key[0], &rows[0][0], &dst[0], &masks[0])
}

// QuantizeRow writes dst[i] = the bin of src[i] under the distance
// quantizer of (qmin, delta) — scan.DistQuantizer.Quantize of every
// entry — on the active backend's kernel, and reports whether it did.
// Only the assembly backends have one; on swar it writes nothing and
// returns false, and the caller runs its Go body. The kernel performs
// the float64 operations of that body in its order — subtract, divide,
// floor, the clamps, and the one-step correction as a rounded multiply
// then a rounded add, never an FMA — so the two agree bit for bit, on
// every input (DESIGN.md §6).
func QuantizeRow(qmin, delta float64, src []float32, dst []uint8) bool {
	if !avx2Kernels() || len(src) == 0 {
		return false
	}
	_ = dst[len(src)-1] // bounds contract
	n := len(src) &^ 7
	if n > 0 {
		quantizeRowAVX2(&src[0], n, qmin, delta, &dst[0])
	}
	if n < len(src) {
		// The last len(src) mod 8 entries, through one zero-padded pass.
		var s [8]float32
		var d [8]uint8
		copy(s[:], src[n:])
		quantizeRowAVX2(&s[0], 8, qmin, delta, &d[0])
		copy(dst[n:], d[:])
	}
	return true
}

// CellRow writes dst[i] = rowConst + cell[i] + qterm[i], clamped at 0,
// for every i < len(cell) — one row of a cell's distance tables
// (index.CellTables) — on the active backend's kernel, and reports
// whether it did. Only the assembly backends have one, for len(cell) a
// positive multiple of 8; otherwise it writes nothing and returns false,
// and the caller runs its Go body. The kernel performs the float32
// operations of that body in its order — rowConst + cell[i] first, then
// + qterm[i], then the clamp of a sum below zero to +0 — so the two
// agree bit for bit, on every input (DESIGN.md §6).
func CellRow(rowConst float32, cell, qterm, dst []float32) bool {
	if !avx2Kernels() || len(cell) == 0 || len(cell)%8 != 0 {
		return false
	}
	_ = qterm[len(cell)-1] // bounds contract
	_ = dst[len(cell)-1]
	cellRowAVX2(rowConst, &cell[0], &qterm[0], &dst[0], len(cell))
	return true
}

// InnerProducts writes dst[i] = ⟨x, cb[i·len(x) : (i+1)·len(x)]⟩ for
// every i — one sub-quantizer's share of a query term, x a sub-vector
// and cb its codebook's rows — on the active backend's kernel, and
// reports whether it did. Only the assembly backends have one, for
// len(x) a positive multiple of 4 and len(dst) of 8; otherwise it
// writes nothing and returns false, and the caller runs its Go body. The kernel performs
// the float operations of that body (quantizer.InnerProducts) in its
// order, so the two agree bit for bit (DESIGN.md §6).
func InnerProducts(x, cb, dst []float32) bool {
	if !avx2Kernels() || len(x) == 0 || len(x)%4 != 0 || len(dst) == 0 || len(dst)%8 != 0 {
		return false
	}
	_ = cb[len(dst)*len(x)-1] // bounds contract
	innerProductsAVX2(&x[0], len(x), &cb[0], len(dst), &dst[0])
	return true
}

// ArgminL2x8 finds, for each of eight rows at once, the nearest of the
// centroids (row-major, dim floats a row) in squared L2 distance:
// best[l], dist[l] = vec.ArgminL2(row l, centroids, dim). xt holds the
// rows transposed, xt[d*8+l] = row l's dimension d, so that one load
// reads dimension d of all eight. Only the assembly backends have the
// kernel; on swar, or for dim or centroids empty or misaligned, it
// writes nothing and returns false, and the caller runs the scalar
// loop. The kernel performs vec.ArgminL2's float operations in its
// order per row, so the two agree bit for bit, index and distance
// (DESIGN.md §6).
func ArgminL2x8(xt, centroids []float32, dim int, best *[8]int32, dist *[8]float32) bool {
	if !avx2Kernels() || dim <= 0 || len(centroids) == 0 || len(centroids)%dim != 0 {
		return false
	}
	_ = xt[8*dim-1] // bounds contract
	argminL2x8AVX2(&xt[0], dim, &centroids[0], len(centroids)/dim, &best[0], &dist[0])
	return true
}

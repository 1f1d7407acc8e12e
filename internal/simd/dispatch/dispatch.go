// Package dispatch selects, at startup, the block-kernel backend PQ
// Fast Scan (internal/scan) runs on. A backend lower-bounds one group's
// blocks and takes their prune decision (the contract of Accumulate,
// defined by AccumulateGeneric); internal/scan runs one block loop
// around whichever backend is selected. Two backends exist:
//
//   - asm-avx2: hand-written amd64 assembly over 32-byte ymm registers
//     (VPSHUFB/VPADDUSB/VPMINUB), processing two 16-lane groups per
//     iteration — the paper's §4 pipeline on the silicon it was designed
//     for, one instruction where the SWAR backend spends dozens;
//   - swar: the portable uint64 pair-LUT pipeline, always available. It
//     lives in internal/scan, which calls it in Accumulate's place, and
//     meets the same contract bit for bit.
//
// Selection is by CPU feature detection (CPUID on amd64; every other
// architecture runs swar), overridable with the PQ_FORCE_BACKEND
// environment variable or per query with the facade's WithBackend
// option. Both backends produce bit-identical results — the DESIGN.md
// §9 contract between the engine and its model, extended down to the
// instruction level (DESIGN.md §12).
package dispatch

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Backend names one block-kernel implementation. The zero value Auto
// defers to the startup selection (Active), so a zero index.Request
// keeps its pre-dispatch behaviour.
type Backend uint8

const (
	// Auto resolves to the best available backend (Active).
	Auto Backend = iota
	// SWAR is the portable uint64 block pipeline inside internal/scan.
	SWAR
	// AVX2 is the amd64 assembly backend (requires AVX2 CPU support).
	AVX2
)

// String returns the stable name used by PQ_FORCE_BACKEND, the facade's
// ParseBackend, bench JSON documents and the server's /stats.
func (b Backend) String() string {
	switch b {
	case Auto:
		return "auto"
	case SWAR:
		return "swar"
	case AVX2:
		return "asm-avx2"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Parse resolves a backend by its String name.
func Parse(name string) (Backend, error) {
	for _, b := range []Backend{Auto, SWAR, AVX2} {
		if b.String() == name {
			return b, nil
		}
	}
	return Auto, fmt.Errorf("dispatch: unknown backend %q (auto, swar, asm-avx2)", name)
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
	default:
		return false
	}
}

// Backends lists every concrete backend, preferred first.
func Backends() []Backend { return []Backend{AVX2, SWAR} }

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

// Active returns the backend a scan uses when no per-query override is
// given. It is never Auto.
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

// Resolve maps Auto to the active backend and leaves concrete backends
// unchanged.
func Resolve(b Backend) Backend {
	if b == Auto {
		return Active()
	}
	return b
}

// InitNote returns a human-readable note about the startup selection
// (e.g. a PQ_FORCE_BACKEND value that could not be honored), or "".
func InitNote() string { return initNote }

// Features lists the CPU SIMD features relevant to backend selection
// that this machine reports, for bench records and /stats.
func Features() []string { return cpuFeatures() }

// Accumulate computes the PQ Fast Scan lower-bound bytes of §4.5 for
// nblocks consecutive packed blocks of one group and takes the prune
// decision of Figure 6 against thr, on backend be (Auto resolves to
// Active). For every block b and lane i it evaluates
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
// Backends produce bit-identical dst and masks.
func Accumulate(be Backend, blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	if nblocks == 0 {
		return
	}
	_ = blocks[nblocks*blockBytes-1] // bounds contract
	_ = dst[nblocks*16-1]
	_ = masks[nblocks-1]
	if Resolve(be) == AVX2 {
		accumulateAVX2Blocks(blocks, blockBytes, c, nblocks, thr, tables, dst, masks)
	} else {
		AccumulateGeneric(blocks, blockBytes, c, nblocks, thr, tables, dst, masks)
	}
}

// InnerProducts writes dst[i] = ⟨x, cb[i·len(x) : (i+1)·len(x)]⟩ for
// every i — one sub-quantizer's share of a query term, x a sub-vector
// and cb its codebook's rows — on the active backend's kernel, and
// reports whether it did. Only asm-avx2 has one, for len(x) a positive
// multiple of 4 and len(dst) of 8; otherwise it writes nothing and
// returns false, and the caller runs its Go body. The kernel performs
// the float operations of that body (quantizer.InnerProducts) in its
// order, so the two agree bit for bit (DESIGN.md §6).
func InnerProducts(x, cb, dst []float32) bool {
	if Active() != AVX2 || len(x) == 0 || len(x)%4 != 0 || len(dst) == 0 || len(dst)%8 != 0 {
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
// reads dimension d of all eight. Only asm-avx2 has the kernel; on any
// other active backend, or for dim or centroids empty or misaligned, it
// writes nothing and returns false, and the caller runs the scalar
// loop. The kernel performs vec.ArgminL2's float operations in its
// order per row, so the two agree bit for bit, index and distance
// (DESIGN.md §6).
func ArgminL2x8(xt, centroids []float32, dim int, best *[8]int32, dist *[8]float32) bool {
	if Active() != AVX2 || dim <= 0 || len(centroids) == 0 || len(centroids)%dim != 0 {
		return false
	}
	_ = xt[8*dim-1] // bounds contract
	argminL2x8AVX2(&xt[0], dim, &centroids[0], len(centroids)/dim, &best[0], &dist[0])
	return true
}

//go:build amd64

package dispatch

// hasAVX2 gates the asm-avx2 backend: the CPU must implement AVX2 and
// the OS must have enabled YMM state saving (OSXSAVE + XCR0). Package
// variable initialization runs before every init() function, so the
// selection logic in dispatch.go always sees the detected value.
var hasAVX2 = detectAVX2()

// hasNEON is an arm64 feature; never on amd64.
var hasNEON = false

// detectAVX2 is the standard AVX2 usability check: CPUID.1:ECX reports
// AVX and OSXSAVE, XGETBV(0) confirms the OS saves XMM+YMM state, and
// CPUID.7.0:EBX bit 5 reports AVX2 itself.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuFeatures reports the SIMD feature set relevant to backend
// selection. avx512f is detected purely for the record (DESIGN.md §12
// names AVX-512 as the next backend); no kernel uses it yet.
func cpuFeatures() []string {
	feats := []string{"sse2"} // amd64 baseline
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return feats
	}
	if _, _, ecx1, _ := cpuidex(1, 0); ecx1&(1<<28) != 0 {
		feats = append(feats, "avx")
	}
	if hasAVX2 {
		feats = append(feats, "avx2")
	}
	if _, ebx7, _, _ := cpuidex(7, 0); ebx7&(1<<16) != 0 {
		feats = append(feats, "avx512f")
	}
	return feats
}

// cpuidex executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the OS-enabled state mask).
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// accumulateAVX2 is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func accumulateAVX2(blocks *byte, blockBytes, c, nblocks int, thr int8, tables *byte, dst *byte, masks *uint16)

func accumulateAVX2Blocks(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	accumulateAVX2(&blocks[0], blockBytes, c, nblocks, thr, &tables[0], &dst[0], &masks[0])
}

// innerProductsAVX2 is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func innerProductsAVX2(x *float32, sd int, cb *float32, k int, dst *float32)

// argminL2x8AVX2 is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func argminL2x8AVX2(xt *float32, dim int, cb *float32, k int, best *int32, dist *float32)

func accumulateNEONBlocks(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	panic("dispatch: asm-neon backend is arm64-only")
}

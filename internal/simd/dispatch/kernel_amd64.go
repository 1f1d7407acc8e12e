//go:build amd64

package dispatch

// hasAVX2 gates the asm-avx2 backend: the CPU must implement AVX2 and
// the OS must have enabled YMM state saving (OSXSAVE + XCR0). Package
// variable initialization runs before every init() function, so the
// selection logic in dispatch.go always sees the detected value.
var hasAVX2 = detectAVX2()

// hasAVX512VBMI gates the asm-avx512vbmi backend: AVX2 (whose kernels
// it shares), AVX-512 F, BW and VBMI, and the OS saving the opmask and
// all 32 zmm registers.
var hasAVX512VBMI = hasAVX2 && detectAVX512VBMI()

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

// detectAVX512VBMI checks CPUID.7.0 for AVX-512 F (EBX bit 16), BW
// (EBX bit 30) and VBMI (ECX bit 1), and XGETBV(0) for the OS saving
// XMM, YMM, the opmask registers and both halves of the zmm file
// (XCR0 bits 1, 2 and 5–7). detectAVX2 has checked CPUID.1's OSXSAVE.
func detectAVX512VBMI() bool {
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	const (
		avx512f    = 1 << 16
		avx512bw   = 1 << 30
		avx512vbmi = 1 << 1
		zmmState   = 0xe6 // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	if ebx7&avx512f == 0 || ebx7&avx512bw == 0 || ecx7&avx512vbmi == 0 {
		return false
	}
	lo, _ := xgetbv0()
	return lo&zmmState == zmmState
}

// cpuFeatures reports the SIMD feature set relevant to backend
// selection, as the CPU reports it: avx512f, avx512bw and avx512vbmi
// are what asm-avx512vbmi needs (beside the OS's zmm state, which
// hasAVX512VBMI checks too).
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
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	if ebx7&(1<<16) != 0 {
		feats = append(feats, "avx512f")
	}
	if ebx7&(1<<30) != 0 {
		feats = append(feats, "avx512bw")
	}
	if ecx7&(1<<1) != 0 {
		feats = append(feats, "avx512vbmi")
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

// innerProductsAVX2 is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func innerProductsAVX2(x *float32, sd int, cb *float32, k int, dst *float32)

// argminL2x8AVX2 is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func argminL2x8AVX2(xt *float32, dim int, cb *float32, k int, best *int32, dist *float32)

// accumulateExactVBMI is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func accumulateExactVBMI(blocks *byte, blockBytes, c, nblocks int, thr int8, key *uint8, rows *uint8, dst *byte, masks *uint16)

// quantizeRowAVX2 is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func quantizeRowAVX2(src *float32, n int, qmin, delta float64, dst *uint8)

// cellRowAVX2 is the hand-written kernel in kernel_amd64.s.
//
//go:noescape
func cellRowAVX2(rowConst float32, cell, qterm, dst *float32, n int)

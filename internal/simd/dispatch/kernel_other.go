//go:build !amd64

package dispatch

// No assembly backend on this architecture: the SWAR backend (and the
// generic reference kernel) carry the build.
var hasAVX2, hasAVX512VBMI = false, false

func cpuFeatures() []string { return nil }

func accumulateAVX2(blocks *byte, blockBytes, c, nblocks int, thr int8, tables *byte, dst *byte, masks *uint16) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func innerProductsAVX2(x *float32, sd int, cb *float32, k int, dst *float32) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func argminL2x8AVX2(xt *float32, dim int, cb *float32, k int, best *int32, dist *float32) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func accumulateExactVBMI(blocks *byte, blockBytes, c, nblocks int, thr int8, key *uint8, rows *uint8, dst *byte, masks *uint16) {
	panic("dispatch: asm-avx512vbmi backend is amd64-only")
}

func quantizeRowAVX2(src *float32, n int, qmin, delta float64, dst *uint8) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func cellRowAVX2(rowConst float32, cell, qterm, dst *float32, n int) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

//go:build !amd64 && !arm64

package dispatch

// No assembly backend on this architecture: the SWAR backend (and the
// generic reference kernel) carry the build.
var (
	hasAVX2 = false
	hasNEON = false
)

func cpuFeatures() []string { return nil }

func accumulateAVX2Blocks(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func accumulateNEONBlocks(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	panic("dispatch: asm-neon backend is arm64-only")
}

func innerProductsAVX2(x *float32, sd int, cb *float32, k int, dst *float32) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func argminL2x8AVX2(xt *float32, dim int, cb *float32, k int, best *int32, dist *float32) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

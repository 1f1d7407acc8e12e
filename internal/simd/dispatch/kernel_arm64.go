//go:build arm64

package dispatch

// Advanced SIMD (NEON) is architectural baseline on arm64: every
// AArch64 core implements it, so no runtime probing is needed.
var hasNEON = true

// hasAVX2 is an amd64 feature; never on arm64.
var hasAVX2 = false

func cpuFeatures() []string { return []string{"neon"} }

// accumulateNEON is the hand-written kernel in kernel_arm64.s.
//
//go:noescape
func accumulateNEON(blocks *byte, blockBytes, c, nblocks int, tables *byte, dst *byte)

// accumulateNEONBlocks runs the assembly kernel for the lower-bound
// bytes and derives the pruned masks from them in Go: the NEON kernel
// predates the in-kernel prune decision and no CI job can execute a
// changed one.
func accumulateNEONBlocks(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	accumulateNEON(&blocks[0], blockBytes, c, nblocks, &tables[0], &dst[0])
	for b := 0; b < nblocks; b++ {
		masks[b] = prunedMask(dst[b*16:b*16+16], thr)
	}
}

func accumulateAVX2Blocks(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func innerProductsAVX2(x *float32, sd int, cb *float32, k int, dst *float32) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

func argminL2x8AVX2(xt *float32, dim int, cb *float32, k int, best *int32, dist *float32) {
	panic("dispatch: asm-avx2 backend is amd64-only")
}

package dispatch

// AccumulateGeneric is the portable reference implementation of
// Accumulate: one scalar table lookup per (lane, component), exact
// 16-bit sums clamped to 127 at the end, one signed compare per lane
// for the pruned mask. It is deliberately written for obviousness, not
// speed, and no scan runs it: the swar backend's group function in
// internal/scan (swarAccumulate) meets the same contract with pair LUTs.
// Its job is to pin the semantics every backend is tested against, on
// every architecture — the assembly kernels here
// (TestAsmKernelsMatchGeneric), the swar group function in
// internal/scan (TestSWARAccumulateMatchesGeneric).
func AccumulateGeneric(blocks []byte, blockBytes, c, nblocks int, thr int8, tables *[128]byte, dst []byte, masks []uint16) {
	for b := 0; b < nblocks; b++ {
		blk := blocks[b*blockBytes : (b+1)*blockBytes]
		var sums [16]uint16
		for j := 0; j < c; j++ {
			tab := tables[j*16 : j*16+16]
			packed := blk[j*8 : j*8+8]
			for k, pb := range packed {
				sums[2*k] += uint16(tab[pb&0x0f])
				sums[2*k+1] += uint16(tab[pb>>4])
			}
		}
		for j := c; j < 8; j++ {
			tab := tables[j*16 : j*16+16]
			full := blk[c*8+(j-c)*16 : c*8+(j-c)*16+16]
			for lane, fb := range full {
				sums[lane] += uint16(tab[fb>>4])
			}
		}
		out := dst[b*16 : b*16+16]
		for lane, s := range sums {
			if s > 127 {
				s = 127
			}
			out[lane] = uint8(s)
		}
		masks[b] = prunedMask(out, thr)
	}
}

// prunedMask is pcmpgtb + pmovmskb over one block's lower-bound bytes:
// bit i is set iff lane i's bound, read as a signed byte, exceeds thr.
func prunedMask(lanes []byte, thr int8) uint16 {
	var m uint16
	for lane, v := range lanes {
		if int8(v) > thr {
			m |= 1 << lane
		}
	}
	return m
}

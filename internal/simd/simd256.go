package simd

// This file models the 256-bit AVX2 register file, the widening the paper
// anticipates in §6 ("the AVX-512 SIMD instruction set ... will allow
// storing larger tables in SIMD registers. This will allow for even
// better performance"). AVX2 (Haswell) already widens the §4 kernel: one
// vpshufb performs two independent 16-entry lookups — its shuffle
// semantics are per-128-bit-lane — so duplicating a small table into both
// lanes processes 32 database vectors per instruction. That is exactly
// the layout adopted by the production descendants of this paper (FAISS
// IndexPQFastScan, ScaNN), which makes the model here a faithful stand-in
// for the instruction behaviour of those kernels.

// Width256 is the AVX2 register width in bytes.
const Width256 = 32

// Reg256 models one 256-bit SIMD register as 32 byte lanes; lanes 0-15
// form the low 128-bit lane and 16-31 the high lane.
type Reg256 [Width256]uint8

// Broadcast256 sets every lane to v (vpbroadcastb).
func Broadcast256(v uint8) Reg256 {
	var r Reg256
	for i := range r {
		r[i] = v
	}
	return r
}

// Dup128 duplicates a 128-bit register into both lanes of a 256-bit
// register (vinserti128/vbroadcasti128) — how a 16-entry small table is
// made visible to both halves of a vpshufb.
func Dup128(a Reg) Reg256 {
	var r Reg256
	copy(r[:16], a[:])
	copy(r[16:], a[:])
	return r
}

// Concat128 places lo in lanes 0-15 and hi in lanes 16-31.
func Concat128(lo, hi Reg) Reg256 {
	var r Reg256
	copy(r[:16], lo[:])
	copy(r[16:], hi[:])
	return r
}

// VPshufb performs the AVX2 byte shuffle: each 128-bit lane is shuffled
// independently with pshufb semantics (high bit zeroes the lane,
// otherwise the low 4 bits index within the same 128-bit lane of the
// table). The cross-lane independence is an architectural property of
// vpshufb, not a simplification.
func VPshufb(table, idx Reg256) Reg256 {
	var r Reg256
	for lane := 0; lane < 2; lane++ {
		base := lane * 16
		for i := 0; i < 16; i++ {
			j := idx[base+i]
			if j&0x80 != 0 {
				r[base+i] = 0
			} else {
				r[base+i] = table[base+int(j&0x0f)]
			}
		}
	}
	return r
}

// VPaddsB performs 32-lane signed saturating addition (vpaddsb).
func VPaddsB(a, b Reg256) Reg256 {
	var r Reg256
	for i := 0; i < Width256; i++ {
		s := int16(int8(a[i])) + int16(int8(b[i]))
		if s > 127 {
			s = 127
		} else if s < -128 {
			s = -128
		}
		r[i] = uint8(int8(s))
	}
	return r
}

// VPcmpgtB performs 32-lane signed greater-than (vpcmpgtb).
func VPcmpgtB(a, b Reg256) Reg256 {
	var r Reg256
	for i := 0; i < Width256; i++ {
		if int8(a[i]) > int8(b[i]) {
			r[i] = 0xff
		}
	}
	return r
}

// VPmovmskB builds a 32-bit mask from the sign bit of every lane
// (vpmovmskb on ymm).
func VPmovmskB(a Reg256) uint32 {
	var m uint32
	for i := 0; i < Width256; i++ {
		m |= uint32(a[i]>>7) << i
	}
	return m
}

// VPand returns the bitwise AND (vpand).
func VPand(a, b Reg256) Reg256 {
	var r Reg256
	for i := 0; i < Width256; i++ {
		r[i] = a[i] & b[i]
	}
	return r
}

// VPsrlw4 shifts each 16-bit word right by 4 bits (vpsrlw ymm, 4).
func VPsrlw4(a Reg256) Reg256 {
	var r Reg256
	for i := 0; i < Width256; i += 2 {
		w := uint16(a[i]) | uint16(a[i+1])<<8
		w >>= 4
		r[i] = uint8(w)
		r[i+1] = uint8(w >> 8)
	}
	return r
}

// LowNibbleBits256 is the 0x0f broadcast for high-nibble extraction.
func LowNibbleBits256() Reg256 { return Broadcast256(0x0f) }

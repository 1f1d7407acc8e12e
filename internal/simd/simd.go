// Package simd is a bit-exact software model of the 128-bit x86 SIMD
// register file and of the exact instruction subset PQ Fast Scan relies on
// (SSE2/SSSE3: pshufb, paddsb, pcmpgtb, pmovmskb, pand, psrlw, broadcasts
// and loads), with their AVX2 widenings in simd256.go.
//
// The paper's implementation is C++ with intrinsics; Go has no intrinsics
// and no inline assembly in the standard toolchain, so this package is the
// substitution documented in DESIGN.md: every operation reproduces the
// architectural semantics of its hardware counterpart — including pshufb's
// high-bit zeroing rule and signed/unsigned saturation — and is verified
// against an independent scalar reference in the test suite. Performance
// shape is recovered separately by internal/perf, which prices the dynamic
// instruction counts with the latency/throughput/µop table the paper
// publishes (its Table 2).
package simd

// Width is the register width in bytes (128 bits), matching SSE registers.
// The paper's small tables are exactly this size: "16 elements of 8 bits
// each (16×8 bits, 128 bits)" (§4.1).
const Width = 16

// Reg models one 128-bit SIMD register as 16 byte lanes. Lane 0 is the
// least significant byte, matching the x86 memory order used by movdqu.
type Reg [Width]uint8

// Load returns a register holding the 16 bytes of src (movdqu).
// It panics if src holds fewer than 16 bytes.
func Load(src []uint8) Reg {
	var r Reg
	copy(r[:], src[:Width])
	return r
}

// Broadcast returns a register with every lane set to v (pshufb-zero or
// _mm_set1_epi8).
func Broadcast(v uint8) Reg {
	var r Reg
	for i := range r {
		r[i] = v
	}
	return r
}

// Pshufb performs the SSSE3 byte shuffle: for each lane i, if the high bit
// of idx[i] is set the result lane is zero, otherwise it is
// table[idx[i] & 0x0f]. This is the in-register 16-entry table lookup at
// the heart of PQ Fast Scan (§4.1, Table 2).
func Pshufb(table, idx Reg) Reg {
	var r Reg
	for i := 0; i < Width; i++ {
		j := idx[i]
		if j&0x80 != 0 {
			r[i] = 0
		} else {
			r[i] = table[j&0x0f]
		}
	}
	return r
}

// PaddsB performs lane-wise signed 8-bit addition with saturation to
// [-128, 127] (paddsb). PQ Fast Scan uses saturated additions "to avoid
// integer overflow issues" when summing quantized distances (§4.4).
func PaddsB(a, b Reg) Reg {
	var r Reg
	for i := 0; i < Width; i++ {
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

// PcmpgtB compares lanes as signed 8-bit integers and returns 0xff in each
// lane where a > b, else 0x00 (pcmpgtb). The paper quantizes distances to
// *signed* 8-bit integers precisely because "there is no SIMD instruction
// to compare unsigned 8-bit integers" in SSE (§4.4).
func PcmpgtB(a, b Reg) Reg {
	var r Reg
	for i := 0; i < Width; i++ {
		if int8(a[i]) > int8(b[i]) {
			r[i] = 0xff
		}
	}
	return r
}

// PmovmskB builds a 16-bit mask from the high bit of every lane
// (pmovmskb). Bit i of the result is the sign bit of lane i.
func PmovmskB(a Reg) uint16 {
	var m uint16
	for i := 0; i < Width; i++ {
		m |= uint16(a[i]>>7) << i
	}
	return m
}

// Pand returns the bitwise AND of both registers (pand).
func Pand(a, b Reg) Reg {
	var r Reg
	for i := 0; i < Width; i++ {
		r[i] = a[i] & b[i]
	}
	return r
}

// Psrlw4 shifts each 16-bit word right by 4 bits (psrlw xmm, 4). Combined
// with Pand(LowNibbleBits()) it extracts the 4 most significant bits of each
// byte, which index the minimum tables S4..S7 (§4.5).
func Psrlw4(a Reg) Reg {
	var r Reg
	for i := 0; i < Width; i += 2 {
		w := uint16(a[i]) | uint16(a[i+1])<<8
		w >>= 4
		r[i] = uint8(w)
		r[i+1] = uint8(w >> 8)
	}
	return r
}

// LowNibbleBits is the constant register with 0x0f in every lane, used to
// extract the 4 least significant bits of each component before a pshufb
// lookup (§4.5).
func LowNibbleBits() Reg { return Broadcast(0x0f) }

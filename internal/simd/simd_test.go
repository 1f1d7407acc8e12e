package simd

import (
	"testing"
	"testing/quick"
)

// regGen adapts quick.Check to Reg values via byte arrays.
func asReg(b [16]byte) Reg { return Reg(b) }

func TestLoadStoreRoundtrip(t *testing.T) {
	if err := quick.Check(func(b [16]byte) bool {
		var out [16]uint8
		Store(out[:], Load(b[:]))
		return out == b
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadPanicsOnShortSlice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Load of a short slice did not panic")
		}
	}()
	Load(make([]uint8, 15))
}

func TestBroadcast(t *testing.T) {
	r := Broadcast(0xab)
	for i, v := range r {
		if v != 0xab {
			t.Fatalf("lane %d = %#x", i, v)
		}
	}
}

// TestPshufbSemantics verifies the architectural pshufb rules: high bit
// set zeroes the lane, otherwise the low 4 bits index the table. This is
// the exact semantics of the SSSE3 instruction on 128-bit operands.
func TestPshufbSemantics(t *testing.T) {
	if err := quick.Check(func(tbl, idx [16]byte) bool {
		got := Pshufb(asReg(tbl), asReg(idx))
		for i := 0; i < 16; i++ {
			want := uint8(0)
			if idx[i]&0x80 == 0 {
				want = tbl[idx[i]&0x0f]
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPshufbIdentity(t *testing.T) {
	var tbl, idx Reg
	for i := range tbl {
		tbl[i] = uint8(i * 3)
		idx[i] = uint8(i)
	}
	if Pshufb(tbl, idx) != tbl {
		t.Fatal("identity shuffle changed the table")
	}
}

func clampI8(v int) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

func TestPaddsBSaturation(t *testing.T) {
	if err := quick.Check(func(a, b [16]byte) bool {
		got := PaddsB(asReg(a), asReg(b))
		for i := 0; i < 16; i++ {
			want := clampI8(int(int8(a[i])) + int(int8(b[i])))
			if int8(got[i]) != want {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaddsBKnownValues(t *testing.T) {
	a := Broadcast(100) // +100
	b := Broadcast(100)
	if got := PaddsB(a, b); int8(got[0]) != 127 {
		t.Fatalf("100 +s 100 = %d, want saturation at 127", int8(got[0]))
	}
	c := Broadcast(0x80) // -128
	if got := PaddsB(c, c); int8(got[0]) != -128 {
		t.Fatalf("-128 +s -128 = %d, want saturation at -128", int8(got[0]))
	}
}

func TestPcmpgtBSigned(t *testing.T) {
	if err := quick.Check(func(a, b [16]byte) bool {
		got := PcmpgtB(asReg(a), asReg(b))
		for i := 0; i < 16; i++ {
			want := uint8(0)
			if int8(a[i]) > int8(b[i]) {
				want = 0xff
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPmovmskB(t *testing.T) {
	if err := quick.Check(func(a [16]byte) bool {
		got := PmovmskB(asReg(a))
		var want uint16
		for i := 0; i < 16; i++ {
			if a[i]&0x80 != 0 {
				want |= 1 << i
			}
		}
		return got == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPand(t *testing.T) {
	if err := quick.Check(func(a, b [16]byte) bool {
		and := Pand(asReg(a), asReg(b))
		for i := 0; i < 16; i++ {
			if and[i] != a[i]&b[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHighNibbleExtraction verifies the idiom the Fast Scan kernel uses:
// psrlw by 4 then mask with 0x0f yields each byte's high nibble,
// regardless of the neighboring byte's content.
func TestHighNibbleExtraction(t *testing.T) {
	if err := quick.Check(func(a [16]byte) bool {
		got := Pand(Psrlw4(asReg(a)), LowNibbleBits())
		for i := 0; i < 16; i++ {
			if got[i] != a[i]>>4 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPsrlw4WordSemantics pins the 16-bit word shift semantics (bits flow
// from the high byte into the low byte of each word), matching psrlw.
func TestPsrlw4WordSemantics(t *testing.T) {
	var a Reg
	a[0], a[1] = 0x00, 0xff // word 0xff00
	got := Psrlw4(a)
	if got[0] != 0xf0 || got[1] != 0x0f {
		t.Fatalf("psrlw4(0xff00) = %#x %#x, want 0xf0 0x0f", got[0], got[1])
	}
}

func TestZero(t *testing.T) {
	if Zero() != (Reg{}) {
		t.Fatal("Zero() is not the zero register")
	}
}

// TestSaturatedSumLowerBoundProperty is the algebraic property the Fast
// Scan pruning proof relies on: a saturated sum of non-negative int8
// values never exceeds the true sum.
func TestSaturatedSumLowerBoundProperty(t *testing.T) {
	if err := quick.Check(func(vals [8][16]byte) bool {
		acc := Zero()
		trueSum := [16]int{}
		for _, v := range vals {
			var r Reg
			for i := range r {
				r[i] = v[i] & 0x7f // non-negative int8
				trueSum[i] += int(r[i])
			}
			acc = PaddsB(acc, r)
		}
		for i := 0; i < 16; i++ {
			if int(int8(acc[i])) > trueSum[i] {
				return false
			}
			// And saturation only ever loses precision at the top.
			if trueSum[i] <= 127 && int(int8(acc[i])) != trueSum[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

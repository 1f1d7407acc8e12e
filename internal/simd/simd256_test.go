package simd

import (
	"testing"
	"testing/quick"
)

// lanes128 splits a 256-bit register into its two 128-bit lanes.
func lanes128(a Reg256) (lo, hi Reg) { return Reg(a[:16]), Reg(a[16:]) }

func TestDup128AndLanes(t *testing.T) {
	if err := quick.Check(func(a [16]byte) bool {
		r := Dup128(Reg(a))
		lo, hi := lanes128(r)
		return lo == Reg(a) && hi == Reg(a)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcat128(t *testing.T) {
	var lo, hi Reg
	for i := range lo {
		lo[i] = uint8(i)
		hi[i] = uint8(100 + i)
	}
	r := Concat128(lo, hi)
	gotLo, gotHi := lanes128(r)
	if gotLo != lo || gotHi != hi {
		t.Fatal("Concat128/Lanes128 roundtrip failed")
	}
}

// TestVPshufbEqualsTwoPshufb: the defining AVX2 property — vpshufb is two
// independent 128-bit pshufb operations.
func TestVPshufbEqualsTwoPshufb(t *testing.T) {
	if err := quick.Check(func(tblLo, tblHi, idxLo, idxHi [16]byte) bool {
		table := Concat128(Reg(tblLo), Reg(tblHi))
		idx := Concat128(Reg(idxLo), Reg(idxHi))
		got := VPshufb(table, idx)
		wantLo := Pshufb(Reg(tblLo), Reg(idxLo))
		wantHi := Pshufb(Reg(tblHi), Reg(idxHi))
		gotLo, gotHi := lanes128(got)
		return gotLo == wantLo && gotHi == wantHi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVPshufbNoCrossLane: indexes never reach across the 128-bit lane
// boundary, even for idx values 16-127.
func TestVPshufbNoCrossLane(t *testing.T) {
	var table Reg256
	for i := range table {
		table[i] = uint8(i) // low lane 0..15, high lane 16..31
	}
	idx := Broadcast256(0x1f) // low nibble 15
	got := VPshufb(table, idx)
	if got[0] != 15 {
		t.Errorf("low lane fetched %d, want 15", got[0])
	}
	if got[16] != 31 {
		t.Errorf("high lane fetched %d, want 31 (its own lane's entry 15)", got[16])
	}
}

func TestWide256OpsMatch128Lanes(t *testing.T) {
	if err := quick.Check(func(aLo, aHi, bLo, bHi [16]byte) bool {
		a := Concat128(Reg(aLo), Reg(aHi))
		b := Concat128(Reg(bLo), Reg(bHi))

		adds := VPaddsB(a, b)
		addLo, addHi := lanes128(adds)
		if addLo != PaddsB(Reg(aLo), Reg(bLo)) || addHi != PaddsB(Reg(aHi), Reg(bHi)) {
			return false
		}
		cmp := VPcmpgtB(a, b)
		cmpLo, cmpHi := lanes128(cmp)
		if cmpLo != PcmpgtB(Reg(aLo), Reg(bLo)) || cmpHi != PcmpgtB(Reg(aHi), Reg(bHi)) {
			return false
		}
		and := VPand(a, b)
		andLo, andHi := lanes128(and)
		if andLo != Pand(Reg(aLo), Reg(bLo)) || andHi != Pand(Reg(aHi), Reg(bHi)) {
			return false
		}
		srl := VPsrlw4(a)
		srlLo, srlHi := lanes128(srl)
		if srlLo != Psrlw4(Reg(aLo)) || srlHi != Psrlw4(Reg(aHi)) {
			return false
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVPmovmskB(t *testing.T) {
	if err := quick.Check(func(a [32]byte) bool {
		got := VPmovmskB(Reg256(a))
		var want uint32
		for i := 0; i < 32; i++ {
			if a[i]&0x80 != 0 {
				want |= 1 << i
			}
		}
		return got == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVPmovmskBLaneSplit(t *testing.T) {
	var lo, hi Reg
	lo[3] = 0x80
	hi[5] = 0xff
	m := VPmovmskB(Concat128(lo, hi))
	if uint16(m) != PmovmskB(lo) {
		t.Errorf("low half mask %#x != pmovmskb %#x", uint16(m), PmovmskB(lo))
	}
	if uint16(m>>16) != PmovmskB(hi) {
		t.Errorf("high half mask %#x != pmovmskb %#x", uint16(m>>16), PmovmskB(hi))
	}
}

func TestBroadcast256(t *testing.T) {
	r := Broadcast256(7)
	for _, v := range r {
		if v != 7 {
			t.Fatal("Broadcast256 lane mismatch")
		}
	}
	if LowNibbleBits256() != Broadcast256(0x0f) {
		t.Fatal("LowNibbleBits256 wrong")
	}
}

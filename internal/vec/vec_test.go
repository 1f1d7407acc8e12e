package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestL2Squared(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := L2Squared(a, b); got != 25 {
		t.Fatalf("L2Squared = %v, want 25", got)
	}
	if got := L2Squared(a, a); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestL2SquaredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimensionality mismatch")
		}
	}()
	L2Squared([]float32{1}, []float32{1, 2})
}

func TestL2SquaredSymmetric(t *testing.T) {
	if err := quick.Check(func(a, b [8]float32) bool {
		return L2Squared(a[:], b[:]) == L2Squared(b[:], a[:])
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaleZeroCopy(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{10, 20, 30}
	Add(a, b)
	if a[0] != 11 || a[2] != 33 {
		t.Fatalf("Add result %v", a)
	}
	Scale(a, 2)
	if a[1] != 44 {
		t.Fatalf("Scale result %v", a)
	}
	c := Copy(a)
	Zero(a)
	if a[0] != 0 || c[0] != 22 {
		t.Fatalf("Zero/Copy interaction: a=%v c=%v", a, c)
	}
}

// TestArgminL2MatchesBruteForce checks the early-abandon implementation
// against a straightforward reference on random inputs.
func TestArgminL2MatchesBruteForce(t *testing.T) {
	if err := quick.Check(func(x [4]float32, cs [6][4]float32) bool {
		flat := make([]float32, 0, 24)
		for _, c := range cs {
			flat = append(flat, c[:]...)
		}
		got, gotD := ArgminL2(x[:], flat, 4)
		best, bestD := 0, float32(math.Inf(1))
		for i, c := range cs {
			if d := L2Squared(x[:], c[:]); d < bestD {
				best, bestD = i, d
			}
		}
		// Distances may differ in rounding because the early-abandon loop
		// breaks early only when already above the best; the argmin and
		// the winning distance must agree.
		return got == best && gotD == bestD
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgminL2PanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on misaligned centroid matrix")
		}
	}()
	ArgminL2([]float32{1, 2}, []float32{1, 2, 3}, 2)
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Dim != 4 {
		t.Fatalf("NewMatrix shape %dx%d", m.Rows(), m.Dim)
	}
	for i := 0; i < 3; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(i*10 + j)
		}
	}
	if m.Row(2)[3] != 23 {
		t.Fatalf("Row aliasing broken: %v", m.Row(2))
	}
	sub := m.SubColumns(1, 3)
	if sub.Dim != 2 || sub.Rows() != 3 {
		t.Fatalf("SubColumns shape %dx%d", sub.Rows(), sub.Dim)
	}
	if sub.Row(1)[0] != 11 || sub.Row(1)[1] != 12 {
		t.Fatalf("SubColumns content: %v", sub.Row(1))
	}
	// SubColumns copies; mutating it must not touch the original.
	sub.Row(0)[0] = 999
	if m.Row(0)[1] == 999 {
		t.Fatal("SubColumns aliases the parent matrix")
	}
}

func TestSubColumnsPanicsOnBadRange(t *testing.T) {
	m := NewMatrix(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid column range")
		}
	}()
	m.SubColumns(3, 3)
}

func TestEmptyMatrixRows(t *testing.T) {
	var m Matrix
	if m.Rows() != 0 {
		t.Fatalf("zero matrix has %d rows", m.Rows())
	}
}

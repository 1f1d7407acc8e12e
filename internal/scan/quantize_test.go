package scan

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
)

// TestQuantizeHugeRatio pins Quantize at ratios no integer conversion
// may see: a floor of 2⁶³ or more is bin 127 (it used to reach int as
// MinInt64 on amd64, bin 0, and saturate on arm64, bin 127), one far
// below zero bin 0, on the Go body and on the row kernel alike.
func TestQuantizeHugeRatio(t *testing.T) {
	for _, tc := range []struct {
		qmin, qmax, v float32
		want          uint8
	}{
		{0, 1e-30, 1, 127},
		{0, 1e-30, 3e38, 127},
		{0, 1e-30, -1, 0},
		{0, 1e-30, -3e38, 0},
		{-3e38, 3e38, 3e38, 127},
		{-3e38, 3e38, -3e38, 0},
	} {
		dq := NewDistQuantizer(tc.qmin, tc.qmax)
		if got := dq.Quantize(tc.v); got != tc.want {
			t.Errorf("NewDistQuantizer(%g, %g).Quantize(%g) = %d, want %d", tc.qmin, tc.qmax, tc.v, got, tc.want)
		}
		var row [1]uint8
		dq.QuantizeRow([]float32{tc.v}, row[:])
		if row[0] != tc.want {
			t.Errorf("NewDistQuantizer(%g, %g).QuantizeRow(%g) = %d, want %d", tc.qmin, tc.qmax, tc.v, row[0], tc.want)
		}
	}
}

// rowKernel reports whether the active backend quantizes rows on a
// kernel, skipping the test when it does not.
func rowKernel(t testing.TB) {
	var probe [1]uint8
	if !dispatch.QuantizeRow(0, 1, []float32{0}, probe[:]) {
		t.Skipf("no row-quantization kernel on backend %s", dispatch.Active())
	}
}

// checkRow holds the row kernel to Quantize on every entry of src.
func checkRow(t testing.TB, dq DistQuantizer, src []float32) {
	t.Helper()
	got := make([]uint8, len(src))
	if !dispatch.QuantizeRow(dq.qmin, dq.delta, src, got) {
		t.Fatal("row kernel went away")
	}
	for i, v := range src {
		if want := dq.Quantize(v); got[i] != want {
			t.Fatalf("qmin %v delta %v: entry %d (%v, bits %08x) of %d: kernel bin %d, Quantize %d",
				dq.qmin, dq.delta, i, v, math.Float32bits(v), len(src), got[i], want)
		}
	}
}

// edgeRow returns entries on and around dq's bin edges: for every bin
// n, the float32 nearest qmin + n·delta and its two neighbours; then
// entries below qmin, both zeros, the infinities and a NaN.
func edgeRow(dq DistQuantizer) []float32 {
	var row []float32
	for n := 0; n <= 128; n++ {
		e := float32(dq.qmin + float64(float64(n)*dq.delta))
		row = append(row, e, math.Nextafter32(e, float32(math.Inf(-1))), math.Nextafter32(e, float32(math.Inf(1))))
	}
	return append(row, float32(dq.qmin)-1, float32(dq.qmin)*2-1e6, 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()))
}

// fmaFlips reports whether computing Quantize's correction with a fused
// multiply-add would change v's bin. Without such entries (fmaCases) a
// kernel using FMA would pass.
func fmaFlips(dq DistQuantizer, v float32) bool {
	x := float64(v)
	f := math.Floor((x - dq.qmin) / dq.delta)
	if !(f > 0) || f > 127 {
		return false
	}
	return (dq.qmin+float64(f*dq.delta) > x) != (math.FMA(f, dq.delta, dq.qmin) > x)
}

// fmaCases returns quantizers and entries whose bin an FMA in the
// correction would move: an entry x, and a delta that puts x on the edge
// of bin n, (x − qmin)/n, where qmin + n·delta rounded twice and rounded
// once fall on either side of x.
func fmaCases(r *rng.Source, want int) (dqs []DistQuantizer, xs []float32) {
	for len(xs) < want {
		qmin := r.Float32()*200 - 100
		x := qmin + r.Float32()*1000
		n := float64(1 + r.Intn(127))
		dq := DistQuantizer{qmin: float64(qmin), delta: (float64(x) - float64(qmin)) / n}
		if fmaFlips(dq, x) {
			dqs, xs = append(dqs, dq), append(xs, x)
		}
	}
	return dqs, xs
}

// TestQuantizeRowMatchesScalar holds dispatch.QuantizeRow to
// DistQuantizer.Quantize, bit for bit, on random quantizers (negative
// and positive ranges, tiny and huge deltas, the degenerate +Inf delta)
// over rows of entries on every bin edge and its neighbours, below qmin,
// ±0, ±Inf and NaN, and random entries, at every row length from 1 to
// 40 (most not a multiple of the kernel's eight) and 256, and on
// entries whose bin an FMA in the correction would move (fmaCases).
func TestQuantizeRowMatchesScalar(t *testing.T) {
	rowKernel(t)
	r := rng.New(42)
	flips := 0
	for trial := 0; trial < 400; trial++ {
		var dq DistQuantizer
		switch trial % 4 {
		case 0:
			qmin := r.Float32()*200 - 100
			dq = NewDistQuantizer(qmin, qmin+r.Float32()*1000+1e-3)
		case 1:
			qmin := r.Float32() * 1e6
			dq = NewDistQuantizer(qmin, qmin*(1+r.Float32()*1e-5))
		case 2:
			qmin := r.Float32() * 10
			dq = NewDistQuantizer(qmin, qmin+r.Float32()*1e30)
		default:
			dq = NewDistQuantizer(r.Float32(), 0) // degenerate: +Inf delta
		}
		edges := edgeRow(dq)
		for _, v := range edges {
			if fmaFlips(dq, v) {
				flips++
			}
		}
		checkRow(t, dq, edges)
		random := make([]float32, 256)
		for i := range random {
			random[i] = float32(dq.qmin) + (r.Float32()*1.2-0.1)*float32(127*dq.delta)
		}
		for n := 1; n <= 40; n++ {
			checkRow(t, dq, random[:n])
			checkRow(t, dq, edges[len(edges)-n:])
		}
		checkRow(t, dq, random)
	}
	dqs, xs := fmaCases(r, 64)
	for i, dq := range dqs {
		checkRow(t, dq, []float32{xs[i]})
		checkRow(t, dq, append(edgeRow(dq), xs[i]))
	}
	t.Logf("%d random-edge entries and %d constructed ones whose bin an FMA correction would move", flips, len(xs))
}

// FuzzQuantizeRow holds the row kernel to Quantize on arbitrary
// quantizers and entries: qmin and delta as given (any float64, the
// degenerate +Inf delta included), the entries the input's bytes read
// as float32 bits, four a value, so a row of any length.
func FuzzQuantizeRow(f *testing.F) {
	bits := func(vs ...float32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	edge := NewDistQuantizer(10, 137)
	f.Add(edge.qmin, edge.delta, bits(10, 11, 136, 137, 138, 9, 0, float32(math.Copysign(0, -1))))
	huge := NewDistQuantizer(0, 1e-30)
	f.Add(huge.qmin, huge.delta, bits(1, -1, 3e38))
	f.Add(5.0, math.Inf(1), bits(5, 6, 1e9, float32(math.Inf(1)), float32(math.NaN())))
	odd := NewDistQuantizer(-3.25, 91.5)
	f.Add(odd.qmin, odd.delta, bits(edgeRow(odd)...))
	dqs, xs := fmaCases(rng.New(1), 4)
	for i, dq := range dqs {
		f.Add(dq.qmin, dq.delta, bits(xs[i]))
	}
	f.Fuzz(func(t *testing.T, qmin, delta float64, raw []byte) {
		rowKernel(t)
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if len(src) == 0 {
			return
		}
		checkRow(t, DistQuantizer{qmin: qmin, delta: delta}, src)
	})
}

// TestQuantizeMonotone: a bin never decreases as its value grows — the
// premise of every quantized bound, since a group's or a block's bound
// is read from quantized minima (BuildMinTables, windowMinima). Quantize
// and QuantizeRow on every available backend are held to it over sorted
// entries: each bin edge qmin + f·delta (f = 0…127) with its float32
// neighbours, values below qmin and above qmax, ±0, subnormals and the
// infinities, and on the quantizers of fmaCases, whose entry sits where
// the floor overshoots and the correction step decides the bin. NaN
// stays out of the order and in its bin 0.
func TestQuantizeMonotone(t *testing.T) {
	r := rng.New(7)
	dqs := []DistQuantizer{
		NewDistQuantizer(10, 137),
		NewDistQuantizer(0, 1),
		NewDistQuantizer(-100, 50),
		NewDistQuantizer(1e6, 1e6*(1+1e-5)),
		NewDistQuantizer(1e-40, 1e-38),
		NewDistQuantizer(3, 3), // degenerate: every entry is bin 0
	}
	for len(dqs) < 64 {
		qmin := r.Float32()*2000 - 1000
		dqs = append(dqs, NewDistQuantizer(qmin, qmin+r.Float32()*r.Float32()*1e4+1e-3))
	}
	edge := make(map[int]float32) // dqs[i]'s entry on a corrected edge
	fdqs, fxs := fmaCases(r, 64)
	for i, dq := range fdqs {
		edge[len(dqs)] = fxs[i]
		dqs = append(dqs, dq)
	}
	inf := float32(math.Inf(1))
	for i, dq := range dqs {
		var row []float32
		if x, ok := edge[i]; ok {
			row = append(row, x, math.Nextafter32(x, -inf), math.Nextafter32(x, inf))
		}
		for f := 0; f <= 127; f++ {
			e := float32(dq.qmin + float64(float64(f)*dq.delta))
			row = append(row, e, math.Nextafter32(e, -inf), math.Nextafter32(e, inf))
		}
		qmin, qmax := float32(dq.qmin), float32(dq.qmin+127*dq.delta)
		row = append(row, qmin-1, qmin-1e6, -math.MaxFloat32, -inf,
			qmax+1, qmax*2+1, 3e38, math.MaxFloat32, inf,
			0, float32(math.Copysign(0, -1)),
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff))
		slices.Sort(row)
		check := func(label string, bins []uint8) {
			t.Helper()
			for i := 1; i < len(row); i++ {
				if bins[i] < bins[i-1] {
					t.Fatalf("%s, qmin %v delta %v: %v (bits %08x) is bin %d, the smaller %v (bits %08x) bin %d",
						label, dq.qmin, dq.delta, row[i], math.Float32bits(row[i]), bins[i],
						row[i-1], math.Float32bits(row[i-1]), bins[i-1])
				}
			}
			if bins[len(row)] != 0 {
				t.Fatalf("%s, qmin %v delta %v: NaN is bin %d, want 0", label, dq.qmin, dq.delta, bins[len(row)])
			}
		}
		withNaN := append(row, float32(math.NaN()))
		bins := make([]uint8, len(withNaN))
		for i, v := range withNaN {
			bins[i] = dq.Quantize(v)
		}
		check("Quantize", bins)
		forEachBackend(t, func(be dispatch.Backend) {
			dq.QuantizeRow(withNaN, bins)
			check("QuantizeRow on "+be.String(), bins)
		})
	}
}

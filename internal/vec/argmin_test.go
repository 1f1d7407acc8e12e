package vec

import (
	"math"
	"testing"

	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
)

// forEachBackend runs f with swar and, where the CPU has it, asm-avx2
// forced active, and restores the startup selection afterwards.
func forEachBackend(t testing.TB, f func(be dispatch.Backend)) {
	orig := dispatch.Active()
	t.Cleanup(func() { _ = dispatch.Force(orig) })
	for _, be := range []dispatch.Backend{dispatch.SWAR, dispatch.AVX2} {
		if !be.Available() {
			continue
		}
		if err := dispatch.Force(be); err != nil {
			t.Fatal(err)
		}
		f(be)
	}
}

// checkRows holds every row of ArgminL2Rows to ArgminL2 on that row:
// the same index and the same distance bits, and the same indexes again
// when no distances are asked for.
func checkRows(t testing.TB, be dispatch.Backend, xs []float32, stride, dim int, centroids []float32, n int) {
	t.Helper()
	best := make([]int, n)
	dists := make([]float32, n)
	ArgminL2Rows(xs, stride, dim, centroids, best, dists)
	only := make([]int, n)
	ArgminL2Rows(xs, stride, dim, centroids, only, nil)
	for i := 0; i < n; i++ {
		want, wantD := ArgminL2(xs[i*stride:i*stride+dim], centroids, dim)
		if best[i] != want || math.Float32bits(dists[i]) != math.Float32bits(wantD) {
			t.Fatalf("%s: k=%d dim=%d n=%d row %d: got (%d, %g %#x), ArgminL2 (%d, %g %#x)",
				be, len(centroids)/dim, dim, n, i, best[i], dists[i], math.Float32bits(dists[i]),
				want, wantD, math.Float32bits(wantD))
		}
		if only[i] != want {
			t.Fatalf("%s: k=%d dim=%d n=%d row %d: index %d without distances, ArgminL2 %d",
				be, len(centroids)/dim, dim, n, i, only[i], want)
		}
	}
}

// wideValue draws a float32 of random sign and a magnitude spread
// log-uniformly over 1e−4 … 1e4, or a signed zero one time in eight:
// squares and partial sums whose rounding depends on the order and the
// number of roundings they are added with.
func wideValue(r *rng.Source) float32 {
	sign := float32(1)
	if r.Intn(2) == 0 {
		sign = -1
	}
	if r.Intn(8) == 0 {
		return sign * 0
	}
	return sign * float32(math.Pow(10, 8*r.Float64()-4))
}

var specials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(1),
	math.Float32frombits(0x007fffff), math.MaxFloat32,
}

// argminCase builds n rows (stride apart) and k centroids of dim
// floats. Every third centroid after the first duplicates its
// predecessor and every fourth row is a copy of a centroid, so exact
// ties of distance 0 and of any distance occur; with special set, one
// value in six is ±Inf, NaN, −0, a subnormal or MaxFloat32.
func argminCase(r *rng.Source, k, dim, n, stride int, special bool) (xs, centroids []float32) {
	draw := func() float32 {
		if special && r.Intn(6) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return wideValue(r)
	}
	centroids = make([]float32, k*dim)
	for c := 0; c < k; c++ {
		row := centroids[c*dim : (c+1)*dim]
		if c > 0 && c%3 == 0 {
			copy(row, centroids[(c-1)*dim:c*dim])
			continue
		}
		for d := range row {
			row[d] = draw()
		}
	}
	xs = make([]float32, (n-1)*stride+dim)
	for i := 0; i < n; i++ {
		row := xs[i*stride : i*stride+dim]
		if i%4 == 3 {
			copy(row, centroids[r.Intn(k)*dim:])
			continue
		}
		for d := range row {
			row[d] = draw()
		}
	}
	return xs, centroids
}

// TestArgminRowsMatchesScalar holds the batched nearest-centroid search
// to its definition on both backends: k of 1, 3, 4 and 5 exercise the
// kernel's four-centroid passes and its one-at-a-time tail, 256 the PQ
// codebooks; row counts that are not a multiple of 8 pad the last
// batch; a stride above dim reads one subspace of wider rows.
func TestArgminRowsMatchesScalar(t *testing.T) {
	forEachBackend(t, func(be dispatch.Backend) {
		r := rng.New(7)
		for _, k := range []int{1, 3, 4, 5, 256} {
			for _, dim := range []int{1, 3, 16, 128} {
				for _, n := range []int{1, 7, 8, 13, 37} {
					for _, special := range []bool{false, true} {
						stride := dim
						if n == 13 {
							stride = dim + 5
						}
						xs, centroids := argminCase(r, k, dim, n, stride, special)
						checkRows(t, be, xs, stride, dim, centroids, n)
					}
				}
			}
		}
		// Rows no centroid is finitely far from: the first index and +Inf.
		xs := []float32{float32(math.NaN()), 1, float32(math.Inf(1)), 2}
		checkRows(t, be, xs, 2, 2, []float32{0, 0, float32(math.Inf(-1)), 3, float32(math.NaN()), 0}, 2)
	})
}

// TestArgminRowsEmptyAndInvalid: no rows is a no-op; a misaligned
// centroid matrix or a short row block panics as ArgminL2 does.
func TestArgminRowsEmptyAndInvalid(t *testing.T) {
	ArgminL2Rows(nil, 4, 4, make([]float32, 8), nil, nil)
	for name, f := range map[string]func(){
		"misaligned": func() { ArgminL2Rows(make([]float32, 8), 4, 4, make([]float32, 6), make([]int, 2), nil) },
		"short":      func() { ArgminL2Rows(make([]float32, 7), 4, 4, make([]float32, 8), make([]int, 2), nil) },
		"stride":     func() { ArgminL2Rows(make([]float32, 8), 2, 4, make([]float32, 8), make([]int, 2), nil) },
		"dists":      func() { ArgminL2Rows(make([]float32, 8), 4, 4, make([]float32, 8), make([]int, 2), make([]float32, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// fuzzValue decodes one float32 from the fuzzer's bytes: a handful of
// codes are the special values, every other byte a small multiple of
// 0.3 (inexact, so roundings differ between operation orders, and
// repeated, so distances tie).
func fuzzValue(b byte) float32 {
	switch b {
	case 0xff:
		return float32(math.NaN())
	case 0xfe:
		return float32(math.Inf(1))
	case 0xfd:
		return float32(math.Inf(-1))
	case 0xfc:
		return float32(math.Copysign(0, -1))
	case 0xfb:
		return math.Float32frombits(1)
	case 0xfa:
		return math.MaxFloat32
	}
	return float32(int8(b)) * 0.3
}

// FuzzArgminL2Rows holds ArgminL2Rows to ArgminL2 on shapes and values
// from the fuzzer, on both backends: the first bytes pick k, dim, the
// row count and the stride, and whether the last centroid duplicates
// the first; the rest are the values, cycled.
func FuzzArgminL2Rows(f *testing.F) {
	f.Add([]byte{3, 4, 9, 0, 1, 10, 20, 30, 40, 50, 60, 70})
	f.Add([]byte{0, 0, 0, 0, 0, 0xff})
	f.Add([]byte{4, 15, 16, 2, 1, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xff, 1, 2, 3})
	f.Add([]byte{15, 127, 20, 3, 0, 5, 200, 17, 99, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		k := 1 + int(data[0])%16
		dim := 1 + int(data[1])%130
		n := 1 + int(data[2])%24
		stride := dim + int(data[3])%4
		dup := data[4]&1 == 1
		vals := data[5:]
		next := 0
		val := func() float32 {
			v := fuzzValue(vals[next%len(vals)] + byte(next/len(vals)))
			next++
			return v
		}
		centroids := make([]float32, k*dim)
		for i := range centroids {
			centroids[i] = val()
		}
		if dup && k > 1 {
			copy(centroids[(k-1)*dim:], centroids[:dim])
		}
		xs := make([]float32, (n-1)*stride+dim)
		for i := range xs {
			xs[i] = val()
		}
		forEachBackend(t, func(be dispatch.Backend) {
			checkRows(t, be, xs, stride, dim, centroids, n)
		})
	})
}

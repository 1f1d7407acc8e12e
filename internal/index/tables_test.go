package index

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"pqfastscan/internal/dataset"
)

// checkFactoredTables states what the factored residual tables promise
// for one query, over every cell of ix:
//
//   - Index.Tables(q, c) matches Equation 2 taken directly on the
//     residual, PQ.DistanceTables(q − c), entry for entry within 1e-6 of
//     that row's maximum (the two differ by float32 rounding only);
//   - no entry is negative, NaN or infinite;
//   - the serving path — one scratch, the query term built on the first
//     probe and reused by every later one — produces bit-for-bit the
//     table the cold, allocating wrapper does.
//
// A query CheckVector rejects has no tables and is skipped.
func checkFactoredTables(t testing.TB, ix *Index, q []float32) {
	t.Helper()
	if CheckVector(q, ix.Dim) != nil {
		return
	}
	qs := ix.getScratch()
	defer scratchPool.Put(qs)
	residual := make([]float32, ix.Dim)
	for c := 0; c < ix.Partitions(); c++ {
		got := ix.Tables(q, c)
		for d, v := range ix.Coarse.Row(c) {
			residual[d] = q[d] - v
		}
		want := ix.PQ.DistanceTables(residual)
		for j := 0; j < want.M; j++ {
			var rowMax float32
			for _, v := range want.Row(j) {
				rowMax = max(rowMax, v)
			}
			tol := 1e-6 * float64(rowMax)
			for i, w := range want.Row(j) {
				g := got.Row(j)[i]
				if !(g >= 0) || math.IsInf(float64(g), 0) {
					t.Fatalf("cell %d table %d entry %d is %v", c, j, i, g)
				}
				if d := math.Abs(float64(g) - float64(w)); d > tol {
					t.Fatalf("cell %d table %d entry %d: factored %v, direct %v: off by %g, more than 1e-6 of the row maximum %v",
						c, j, i, g, w, d, rowMax)
				}
			}
		}
		// Cell c's table through the scratch that already served cells
		// 0..c-1, against the cold one.
		warm := ix.tables(qs, q, c)
		for i, g := range got.Data {
			if math.Float32bits(warm.Data[i]) != math.Float32bits(g) {
				t.Fatalf("cell %d entry %d: %v through a reused query term, %v cold", c, i, warm.Data[i], g)
			}
		}
	}
}

// tableCornerQueries are the queries the identity is most likely to
// break on: the origin, a coarse centroid itself (a zero residual), a
// coarse centroid plus one codebook centroid per sub-space (so one
// entry of every table is ≈ 0, where the clamp works), and components
// at ±1e18 (squared norm 1.28e38, just inside float32).
func tableCornerQueries(ix *Index) [][]float32 {
	zero := make([]float32, ix.Dim)
	centroid := append([]float32(nil), ix.Coarse.Row(1)...)
	onCode := append([]float32(nil), ix.Coarse.Row(2)...)
	for j := 0; j < ix.PQ.M; j++ {
		for d, v := range ix.PQ.Codebooks[j].Row(17 * (j + 1) % ix.PQ.KStar()) {
			onCode[j*ix.PQ.SubDim+d] += v
		}
	}
	huge := make([]float32, ix.Dim)
	for i := range huge {
		huge[i] = 1e18
		if i%3 == 0 {
			huge[i] = -1e18
		}
	}
	return [][]float32{zero, centroid, onCode, huge}
}

func TestFactoredTablesProperty(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	for i := 0; i < queries.Rows(); i++ {
		checkFactoredTables(t, ix, queries.Row(i))
	}
	more := dataset.NewGenerator(dataset.Config{Seed: 977}).Generate(64)
	for i := 0; i < more.Rows(); i++ {
		checkFactoredTables(t, ix, more.Row(i))
	}
	for _, q := range tableCornerQueries(ix) {
		checkFactoredTables(t, ix, q)
	}
}

// FuzzFactoredTables is TestFactoredTablesProperty with the query's
// float32 components read from the fuzz input (little-endian, missing
// bytes read as zero).
func FuzzFactoredTables(f *testing.F) {
	ix, _, queries := sharedIndex(f)
	encode := func(q []float32) []byte {
		b := make([]byte, 4*len(q))
		for i, v := range q {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	f.Add(encode(queries.Row(0)))
	for _, q := range tableCornerQueries(ix) {
		f.Add(encode(q))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := make([]float32, ix.Dim)
		for i := range q {
			if len(data) >= 4*(i+1) {
				q[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		checkFactoredTables(t, ix, q)
	})
}

func TestCheckVector(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, c := range []struct {
		v  []float32
		ok bool
	}{
		{[]float32{0, 0}, true},
		{[]float32{3, -4}, true},
		{[]float32{1e19, -1e19}, true},     // 2e38 < MaxFloat32
		{[]float32{1.5e19, 1.5e19}, false}, // 4.5e38 overflows the sum
		{[]float32{1e30, 0}, false},        // one square overflows
		{[]float32{1, inf}, false},
		{[]float32{-inf, 1}, false},
		{[]float32{1, nan, 1}, false},
	} {
		if err := CheckVector(c.v, len(c.v)); (err == nil) != c.ok {
			t.Errorf("CheckVector(%v) = %v, want ok=%v", c.v, err, c.ok)
		}
	}
	if err := CheckVector([]float32{1, 2}, 3); !errors.Is(err, ErrBadRequest) {
		t.Errorf("a short vector: %v, want an error wrapping ErrBadRequest", err)
	}
}

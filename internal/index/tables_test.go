package index

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/simd/dispatch"
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
//     table the cold, allocating wrapper does;
//   - the active backend produces bit-for-bit the table swar does, which
//     runs the Go body of every kernel the tables go through.
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
		if be := dispatch.Active(); be != dispatch.SWAR {
			swar := tablesOnSWAR(t, ix, q, c)
			for i, g := range got.Data {
				if math.Float32bits(swar.Data[i]) != math.Float32bits(g) {
					t.Fatalf("cell %d entry %d: %v (bits %08x) on %s, %v (bits %08x) on swar",
						c, i, g, math.Float32bits(g), be, swar.Data[i], math.Float32bits(swar.Data[i]))
				}
			}
		}
	}
}

// tablesOnSWAR is Index.Tables with the process pinned to swar for the
// call; the selection is restored before it returns.
func tablesOnSWAR(t testing.TB, ix *Index, q []float32, part int) quantizer.Tables {
	t.Helper()
	orig := dispatch.Active()
	defer func() { _ = dispatch.Force(orig) }()
	if err := dispatch.Force(dispatch.SWAR); err != nil {
		t.Fatal(err)
	}
	return ix.Tables(q, part)
}

// TestCellRowMatchesScalar holds dispatch.CellRow to cellEntry, the Go
// body of CellTables' row loop, by Float32bits, on each assembly backend
// this machine has (pinned with dispatch.Force): sums that cancel to
// exactly +0, negative zeros, small negatives that must clamp, sums a
// hair above zero, large magnitudes that overflow to ±Inf or cancel to
// NaN, infinities, NaNs and subnormals, and random bit patterns, at
// every row length from 8 to 40 the kernel takes and 256; it must
// decline every other length.
func TestCellRowMatchesScalar(t *testing.T) {
	restoreBackend(t)
	ran := 0
	for _, be := range dispatch.AvailableBackends() {
		if be == dispatch.SWAR {
			continue
		}
		forceBackend(t, be)
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			rowConst, cell, qterm := cellRowCase(r, trial, 256)
			for n := 1; n <= 40; n++ {
				if n%8 != 0 {
					if dispatch.CellRow(rowConst, cell[:n], qterm[:n], make([]float32, n)) {
						t.Fatalf("%s: the kernel took a row of %d entries", be, n)
					}
					continue
				}
				checkCellRow(t, be, rowConst, cell[256-n:], qterm[256-n:])
			}
			checkCellRow(t, be, rowConst, cell, qterm)
		}
		ran++
	}
	if ran == 0 {
		t.Skip("no assembly backend on this machine")
	}
}

// cellRowCase returns a row constant and n cell and query terms, the
// kind of sums chosen by trial.
func cellRowCase(r *rand.Rand, trial, n int) (rowConst float32, cell, qterm []float32) {
	cell, qterm = make([]float32, n), make([]float32, n)
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32}
	switch trial % 5 {
	case 0: // the serving regime: a constant and cell term that the query term nearly cancels
		rowConst = r.Float32() * 100
		for i := range cell {
			cell[i] = r.Float32() * 1000
			x := rowConst + cell[i]
			switch i % 4 {
			case 0:
				qterm[i] = -x // exactly +0
			case 1:
				qterm[i] = -math.Nextafter32(x, float32(math.Inf(1))) // a hair below zero
			case 2:
				qterm[i] = -math.Nextafter32(x, 0) // a hair above zero
			default:
				qterm[i] = -x * (r.Float32()*2 - 0.5)
			}
		}
	case 1: // large magnitudes: sums that overflow, or cancel through ±Inf to NaN
		rowConst = math.MaxFloat32 * r.Float32()
		for i := range cell {
			cell[i] = (r.Float32()*2 - 1) * math.MaxFloat32
			qterm[i] = (r.Float32()*2 - 1) * math.MaxFloat32
		}
	case 2: // special values in every position
		rowConst = special[r.Intn(len(special))]
		for i := range cell {
			cell[i] = special[r.Intn(len(special))]
			qterm[i] = special[r.Intn(len(special))]
		}
	case 3: // subnormal and tiny sums of either sign
		rowConst = math.SmallestNonzeroFloat32 * float32(r.Intn(8))
		for i := range cell {
			cell[i] = math.SmallestNonzeroFloat32 * float32(r.Intn(64)-32)
			qterm[i] = math.SmallestNonzeroFloat32 * float32(r.Intn(64)-32)
		}
	default: // random bit patterns
		rowConst = math.Float32frombits(r.Uint32())
		for i := range cell {
			cell[i] = math.Float32frombits(r.Uint32())
			qterm[i] = math.Float32frombits(r.Uint32())
		}
	}
	return rowConst, cell, qterm
}

// checkCellRow holds the row kernel to cellEntry on every entry.
func checkCellRow(t *testing.T, be dispatch.Backend, rowConst float32, cell, qterm []float32) {
	t.Helper()
	got := make([]float32, len(cell))
	if !dispatch.CellRow(rowConst, cell, qterm, got) {
		t.Fatalf("%s has no cell-row kernel", be)
	}
	for i, g := range got {
		want := cellEntry(rowConst, cell[i], qterm[i])
		if math.Float32bits(g) != math.Float32bits(want) {
			t.Fatalf("%s: %v + %v + %v, entry %d of %d: kernel %v (bits %08x), Go body %v (bits %08x)",
				be, rowConst, cell[i], qterm[i], i, len(cell), g, math.Float32bits(g), want, math.Float32bits(want))
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

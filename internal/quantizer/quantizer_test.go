package quantizer

import (
	"math"
	"testing"

	"pqfastscan/internal/rng"
	"pqfastscan/internal/vec"
)

func randomData(n, dim int, seed uint64) vec.Matrix {
	r := rng.New(seed)
	m := vec.NewMatrix(n, dim)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64() * 10)
	}
	return m
}

func trainSmall(t *testing.T, seed uint64) (*ProductQuantizer, vec.Matrix) {
	t.Helper()
	data := randomData(2000, 32, seed)
	pq, err := Train(data, Config{M: 8, Bits: 8}, TrainOptions{MaxIter: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return pq, data
}

func TestConfigProperties(t *testing.T) {
	cases := []struct {
		cfg        Config
		kstar      int
		tableBytes int
		str        string
	}{
		{PQ16x4, 16, 16 * 16 * 4, "PQ 16x4"},
		{PQ8x8, 256, 8 * 256 * 4, "PQ 8x8"},
		{PQ4x16, 65536, 4 * 65536 * 4, "PQ 4x16"},
	}
	for _, c := range cases {
		if c.cfg.KStar() != c.kstar {
			t.Errorf("%v KStar = %d, want %d", c.cfg, c.cfg.KStar(), c.kstar)
		}
		if c.cfg.TableBytes() != c.tableBytes {
			t.Errorf("%v TableBytes = %d, want %d", c.cfg, c.cfg.TableBytes(), c.tableBytes)
		}
		if c.cfg.String() != c.str {
			t.Errorf("String() = %q, want %q", c.cfg.String(), c.str)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	data := randomData(100, 30, 1)
	if _, err := Train(data, Config{M: 8, Bits: 8}, TrainOptions{}); err == nil {
		t.Error("dim 30 not divisible by m=8 accepted")
	}
	if _, err := Train(data, Config{M: 0, Bits: 8}, TrainOptions{}); err == nil {
		t.Error("m=0 accepted")
	}
	small := randomData(10, 32, 1)
	if _, err := Train(small, Config{M: 8, Bits: 8}, TrainOptions{}); err == nil {
		t.Error("training set smaller than k* accepted")
	}
}

// TestADCEqualsDecodedDistance: the ADC approximation of Equation 1 is by
// construction the exact distance between the query and the *decoded*
// database vector.
func TestADCEqualsDecodedDistance(t *testing.T) {
	pq, data := trainSmall(t, 2)
	query := randomData(1, 32, 99).Row(0)
	tables := pq.DistanceTables(query)
	code := make([]uint8, pq.M)
	recon := make([]float32, pq.Dim)
	for i := 0; i < 50; i++ {
		pq.Encode(data.Row(i), code)
		pq.Decode(code, recon)
		adc := float64(ADC(code, tables))
		direct := float64(vec.L2Squared(query, recon))
		if math.Abs(adc-direct) > 1e-2*math.Max(1, direct) {
			t.Fatalf("vector %d: ADC %.4f != decoded distance %.4f", i, adc, direct)
		}
	}
}

func TestDistanceTablesEntries(t *testing.T) {
	pq, _ := trainSmall(t, 3)
	query := randomData(1, 32, 5).Row(0)
	tables := pq.DistanceTables(query)
	if tables.M != 8 || tables.KStar != 256 {
		t.Fatalf("table shape %dx%d", tables.M, tables.KStar)
	}
	// Spot-check entries against the definition (Equation 2).
	for j := 0; j < pq.M; j++ {
		sub := query[j*pq.SubDim : (j+1)*pq.SubDim]
		for _, i := range []int{0, 17, 255} {
			want := vec.L2Squared(sub, pq.Codebooks[j].Row(i))
			if got := tables.Row(j)[i]; got != want {
				t.Fatalf("D_%d[%d] = %v, want %v", j, i, got, want)
			}
		}
	}
}

// TestInnerProductsAndNorms: the two primitives of the factored table
// agree with their definitions taken in float64, for sub-vector lengths
// on and off the unrolled stride and for k* = 16 as well as 256, and
// together they rebuild Equation 2: ‖x_j‖² + ‖p‖² − 2⟨x_j, p⟩ is
// DistanceTables' entry up to rounding.
func TestInnerProductsAndNorms(t *testing.T) {
	for _, c := range []struct {
		dim int
		cfg Config
	}{
		{32, PQ8x8},  // sub-vectors of 4: one unrolled step
		{128, PQ8x8}, // 16: the serving shape
		{48, PQ8x8},  // 6: one step and a tail of 2
		{48, PQ16x4}, // 3: tail only, 16 centroids
	} {
		data := randomData(2000, c.dim, uint64(c.dim))
		pq, err := Train(data, c.cfg, TrainOptions{MaxIter: 5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		x := randomData(1, c.dim, 11).Row(0)
		k := pq.KStar()
		ip := make([]float32, pq.M*k)
		pq.InnerProducts(x, ip)
		norms := pq.CentroidNorms()
		direct := pq.DistanceTables(x)
		for j := 0; j < pq.M; j++ {
			sub := x[j*pq.SubDim : (j+1)*pq.SubDim]
			var subNorm float64
			for _, v := range sub {
				subNorm += float64(v) * float64(v)
			}
			for i := 0; i < k; i++ {
				var wantIP, wantNorm float64
				for d, pv := range pq.Codebooks[j].Row(i) {
					wantIP += float64(sub[d]) * float64(pv)
					wantNorm += float64(pv) * float64(pv)
				}
				scale := subNorm + wantNorm // bounds |⟨x,p⟩| and every partial sum
				if got := float64(ip[j*k+i]); math.Abs(got-wantIP) > 1e-6*scale {
					t.Fatalf("%v dim %d: ⟨x_%d, p_%d⟩ = %v, want %v", c.cfg, c.dim, j, i, got, wantIP)
				}
				if got := float64(norms[j*k+i]); math.Abs(got-wantNorm) > 1e-6*scale {
					t.Fatalf("%v dim %d: ‖p_%d,%d‖² = %v, want %v", c.cfg, c.dim, j, i, got, wantNorm)
				}
				rebuilt := subNorm + float64(norms[j*k+i]) - 2*float64(ip[j*k+i])
				if want := float64(direct.Row(j)[i]); math.Abs(rebuilt-want) > 1e-5*scale {
					t.Fatalf("%v dim %d: rebuilt D_%d[%d] = %v, direct %v", c.cfg, c.dim, j, i, rebuilt, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("InnerProducts accepted a short destination")
		}
	}()
	pq, _ := trainSmall(t, 3)
	pq.InnerProducts(make([]float32, pq.Dim), make([]float32, 7))
}

func TestTablesMinAndMaxSum(t *testing.T) {
	tbl := Tables{M: 2, KStar: 4, Data: []float32{5, 2, 7, 3, 9, 4, 6, 8}}
	if got := tbl.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := tbl.MaxSum(); got != 7+9 {
		t.Errorf("MaxSum = %v, want 16", got)
	}
}

// TestEncodePicksNearestCentroid: each sub-code must reference the
// closest centroid of its sub-quantizer.
func TestEncodePicksNearestCentroid(t *testing.T) {
	pq, data := trainSmall(t, 4)
	code := make([]uint8, pq.M)
	for i := 0; i < 20; i++ {
		x := data.Row(i)
		pq.Encode(x, code)
		for j := 0; j < pq.M; j++ {
			sub := x[j*pq.SubDim : (j+1)*pq.SubDim]
			want, _ := vec.ArgminL2(sub, pq.Codebooks[j].Data, pq.SubDim)
			if int(code[j]) != want {
				t.Fatalf("vector %d sub %d: code %d, nearest %d", i, j, code[j], want)
			}
		}
	}
}

// TestQuantizationErrorImproves: quantization must be far better than
// representing everything by a single centroid, and a PQ with more
// centroids per sub-quantizer must not be worse.
func TestQuantizationErrorImproves(t *testing.T) {
	data := randomData(3000, 32, 7)
	pq8, err := Train(data, Config{M: 8, Bits: 8}, TrainOptions{MaxIter: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pq4, err := Train(data, Config{M: 8, Bits: 4}, TrainOptions{MaxIter: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e8 := pq8.QuantizationError(data)
	e4 := pq4.QuantizationError(data)
	if e8 >= e4 {
		t.Errorf("256-centroid error %.2f not below 16-centroid error %.2f", e8, e4)
	}
}

// TestOptimizeAssignmentPreservesGeometry: the permutation must be a
// bijection and the permuted quantizer must encode/decode identically to
// the original up to index renaming.
func TestOptimizeAssignmentPreservesGeometry(t *testing.T) {
	pq, data := trainSmall(t, 8)
	// Snapshot decoded vectors before permutation.
	codesBefore := make([]uint8, data.Rows()*pq.M)
	pq.EncodeRows(data.Data, codesBefore)
	reconBefore := make([]float32, pq.Dim)

	perms, err := pq.OptimizeAssignment(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(perms) != pq.M {
		t.Fatalf("%d permutations for %d sub-quantizers", len(perms), pq.M)
	}
	for j, perm := range perms {
		seen := make([]bool, pq.KStar())
		for _, v := range perm {
			if v < 0 || v >= pq.KStar() || seen[v] {
				t.Fatalf("sub-quantizer %d: invalid permutation", j)
			}
			seen[v] = true
		}
	}
	// Translating old codes must yield the same decoded vectors.
	pqNew := pq
	codesAfter := append([]uint8(nil), codesBefore...)
	for i, c := range codesAfter {
		codesAfter[i] = uint8(perms[i%pq.M][c])
	}
	reconAfter := make([]float32, pq.Dim)
	for i := 0; i < 100; i++ {
		// Decode through a stale copy is impossible (codebooks mutated in
		// place), so compare decoded translated codes against re-encoding.
		pqNew.Decode(codesAfter[i*pq.M:(i+1)*pq.M], reconAfter)
		code := make([]uint8, pq.M)
		pqNew.Encode(data.Row(i), code)
		pqNew.Decode(code, reconBefore)
		for d := range reconAfter {
			if reconAfter[d] != reconBefore[d] {
				t.Fatalf("vector %d decodes differently after translation", i)
			}
		}
	}
}

// TestOptimizeAssignmentPortionsAreClusters: after the optimized
// assignment, the 16 centroids of one portion must be the members of one
// same-size cluster, i.e. closer to their portion-mates than a random
// assignment would be (§4.3, Figure 11).
func TestOptimizeAssignmentPortionsAreClusters(t *testing.T) {
	pq, _ := trainSmall(t, 12)
	intra := func() float64 {
		tot, cnt := 0.0, 0
		for j := 0; j < pq.M; j++ {
			cb := pq.Codebooks[j]
			for h := 0; h < 16; h++ {
				for a := 0; a < 16; a++ {
					for b := a + 1; b < 16; b++ {
						tot += float64(vec.L2Squared(cb.Row(h*16+a), cb.Row(h*16+b)))
						cnt++
					}
				}
			}
		}
		return tot / float64(cnt)
	}
	before := intra()
	if _, err := pq.OptimizeAssignment(13); err != nil {
		t.Fatal(err)
	}
	after := intra()
	if after >= before {
		t.Errorf("intra-portion spread did not improve: %.1f -> %.1f", before, after)
	}
}

func TestOptimizeAssignmentRejectsSmallKStar(t *testing.T) {
	data := randomData(200, 16, 3)
	pq, err := Train(data, Config{M: 4, Bits: 3}, TrainOptions{MaxIter: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.OptimizeAssignment(1); err == nil {
		t.Error("k*=8 (not divisible into 16 portions) accepted")
	}
}

func TestEncodePanics(t *testing.T) {
	pq, _ := trainSmall(t, 14)
	for name, fn := range map[string]func(){
		"short vector": func() { pq.Encode(make([]float32, 3), make([]uint8, 8)) },
		"short code":   func() { pq.Encode(make([]float32, 32), make([]uint8, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

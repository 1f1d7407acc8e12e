package quantizer

import (
	"fmt"
	"math"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/vec"
)

// wideValue draws a float32 of random sign and a magnitude spread
// log-uniformly over 1e−4 … 1e4, or a signed zero one time in eight:
// products and partial sums of very different sizes, whose rounding
// depends on the order they are added in.
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

// randomPQ is a product quantizer over random codebooks (no training):
// m sub-quantizers of kstar centroids of sd dimensions, every entry a
// wideValue.
func randomPQ(r *rng.Source, cfg Config, sd int) *ProductQuantizer {
	pq := &ProductQuantizer{Config: cfg, Dim: cfg.M * sd, SubDim: sd, Codebooks: make([]vec.Matrix, cfg.M)}
	for j := range pq.Codebooks {
		pq.Codebooks[j] = vec.NewMatrix(cfg.KStar(), sd)
		for i := range pq.Codebooks[j].Data {
			pq.Codebooks[j].Data[i] = wideValue(r)
		}
	}
	return pq
}

// goInnerProducts is InnerProducts on its Go body alone.
func goInnerProducts(pq *ProductQuantizer, x []float32) []float32 {
	k, sd := pq.KStar(), pq.SubDim
	dst := make([]float32, pq.M*k)
	for j := 0; j < pq.M; j++ {
		innerProductsRow(x[j*sd:(j+1)*sd], pq.Codebooks[j].Data, dst[j*k:(j+1)*k])
	}
	return dst
}

// forEachBackend runs f with each of the active backend, swar (the Go
// body) and asm-avx2 where the CPU has it forced active, and restores
// the startup selection afterwards.
func forEachBackend(t testing.TB, f func(be dispatch.Backend)) {
	orig := dispatch.Active()
	t.Cleanup(func() { _ = dispatch.Force(orig) })
	bes := []dispatch.Backend{orig}
	for _, be := range []dispatch.Backend{dispatch.SWAR, dispatch.AVX2} {
		if be != orig && be.Available() {
			bes = append(bes, be)
		}
	}
	for _, be := range bes {
		if err := dispatch.Force(be); err != nil {
			t.Fatal(err)
		}
		f(be)
	}
}

// TestInnerProductsKernelMatchesGo holds the dispatching InnerProducts
// to its Go body bit for bit (math.Float32bits, so −0 ≠ +0) over random
// codebooks and queries of signed zeros and magnitudes from 1e−4 to
// 1e4, on every backend this machine has: the asm-avx2 kernel must do
// the body's multiplies and adds in the body's order. SubDims 4, 8, 16
// and 32 take the kernel under asm-avx2; 3 and 6 are not multiples of 4
// and must take the Go body on every backend (the kernel cannot run
// them), as k* = 4 must.
func TestInnerProductsKernelMatchesGo(t *testing.T) {
	r := rng.New(38)
	type shape struct {
		cfg Config
		sd  int
	}
	var shapes []shape
	for _, sd := range []int{4, 8, 16, 32} {
		shapes = append(shapes, shape{PQ8x8, sd}, shape{PQ16x4, sd})
	}
	shapes = append(shapes, shape{PQ8x8, 3}, shape{PQ8x8, 6}, shape{Config{M: 2, Bits: 2}, 8})
	forEachBackend(t, func(be dispatch.Backend) {
		for trial := 0; trial < 300; trial++ {
			s := shapes[trial%len(shapes)]
			pq := randomPQ(r, s.cfg, s.sd)
			x := make([]float32, pq.Dim)
			for i := range x {
				x[i] = wideValue(r)
			}
			want := goInnerProducts(pq, x)
			got := make([]float32, len(want))
			pq.InnerProducts(x, got)
			for i, w := range want {
				if math.Float32bits(got[i]) != math.Float32bits(w) {
					j, c := i/pq.KStar(), i%pq.KStar()
					t.Fatalf("%s, %v, SubDim %d, trial %d: ⟨x_%d, p_%d⟩ = %v (%#08x), Go body %v (%#08x)",
						be, s.cfg, s.sd, trial, j, c, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
				}
			}
		}
	})
}

// BenchmarkQueryTerm times one query term of the serving shape, PQ 8×8
// over 16-dimensional sub-vectors: 8 × 256 × 16 multiply-adds, on each
// backend this machine has.
func BenchmarkQueryTerm(b *testing.B) {
	r := rng.New(1)
	pq := randomPQ(r, PQ8x8, 16)
	x := make([]float32, pq.Dim)
	for i := range x {
		x[i] = wideValue(r)
	}
	dst := make([]float32, pq.M*pq.KStar())
	forEachBackend(b, func(be dispatch.Backend) {
		b.Run(fmt.Sprint("backend=", be), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pq.InnerProducts(x, dst)
			}
		})
	})
}

// trainedPQ is a PQ 8×8 trained on synthetic SIFT-like rows of 128
// dimensions, with a further n rows of the same data to encode.
func trainedPQ(t testing.TB, n int) (*ProductQuantizer, vec.Matrix) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 3})
	pq, err := Train(gen.Generate(2000), PQ8x8, TrainOptions{MaxIter: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return pq, gen.Generate(n)
}

// TestEncodeRowsMatchesArgmin holds EncodeRows, over batch sizes on both
// sides of its 64-row slab and of the kernel's eight lanes, to one
// vec.ArgminL2 per row and subspace, on every backend this machine has.
func TestEncodeRowsMatchesArgmin(t *testing.T) {
	pq, data := trainedPQ(t, 140)
	forEachBackend(t, func(be dispatch.Backend) {
		for _, n := range []int{1, 5, 8, 64, 71, 140} {
			codes := make([]uint8, n*pq.M)
			pq.EncodeRows(data.Data[:n*pq.Dim], codes)
			for i := 0; i < n; i++ {
				for j := 0; j < pq.M; j++ {
					sub := data.Row(i)[j*pq.SubDim : (j+1)*pq.SubDim]
					want, _ := vec.ArgminL2(sub, pq.Codebooks[j].Data, pq.SubDim)
					if int(codes[i*pq.M+j]) != want {
						t.Fatalf("%s, %d rows: row %d subspace %d encoded %d, ArgminL2 %d", be, n, i, j, codes[i*pq.M+j], want)
					}
				}
			}
		}
	})
}

// BenchmarkEncode prices EncodeRows per vector — PQ 8×8 over 128
// dimensions, 8 × 256 centroids of 16 — for a batch of one row (a
// single Add) and of eight (one pass of the kernel), on each backend
// this machine has: swar is vec.ArgminL2 per row and subspace, asm-avx2
// the eight-row kernel.
func BenchmarkEncode(b *testing.B) {
	pq, data := trainedPQ(b, 8)
	codes := make([]uint8, 8*pq.M)
	forEachBackend(b, func(be dispatch.Backend) {
		for _, rows := range []int{1, 8} {
			b.Run(fmt.Sprintf("backend=%s/rows=%d", be, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pq.EncodeRows(data.Data[:rows*pq.Dim], codes[:rows*pq.M])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/vector")
			})
		}
	})
}

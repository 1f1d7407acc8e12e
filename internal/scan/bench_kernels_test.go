package scan

import (
	"fmt"
	"sync"
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// benchEnv is one benchmark fixture: a partition of n random codes and
// the portion-homogeneous distance tables of the paper's operating
// regime (the §4.3 optimized assignment makes nearby centroids share a
// portion, so one portion per component is close to the query and Fast
// Scan prunes heavily — the regime all §5 figures measure). Run under
// PQ_FORCE_BACKEND=swar|asm-avx2|asm-neon for one backend's numbers
// (DESIGN.md §8); every native scan builds its query tables, as every
// served scan does.
type benchEnv struct {
	p      *Partition
	tables quantizer.Tables
	fast   *FastScan
}

var (
	benchEnvs   = map[int]*benchEnv{}
	benchEnvsMu sync.Mutex
)

func getBenchEnv(b *testing.B, n int) *benchEnv {
	b.Helper()
	benchEnvsMu.Lock()
	defer benchEnvsMu.Unlock()
	if e, ok := benchEnvs[n]; ok {
		return e
	}
	r := rng.New(uint64(n) + 1)
	codes := make([]uint8, n*M)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for j := 0; j < M; j++ {
		row := tables.Data[j*256 : (j+1)*256]
		near := r.Intn(16)
		for h := 0; h < 16; h++ {
			level := 1000 + r.Float32()*5000
			if h == near {
				level = r.Float32() * 20
			}
			for i := 0; i < 16; i++ {
				row[h*16+i] = level + r.Float32()*50
			}
		}
	}
	e := &benchEnv{p: NewPartition(codes, nil), tables: tables}
	fs, err := NewFastScan(e.p, FastScanOptions{Keep: DefaultKeep, GroupComponents: -1, OrderGroups: true})
	if err != nil {
		b.Fatal(err)
	}
	e.fast = fs
	benchEnvs[n] = e
	return e
}

const benchK = 100

// benchSizes spans the partition sizes the kernels are compared at; the
// largest is the size of one lib_mixed/serve_search partition of the
// standing benchmark.
var benchSizes = []int{1000, 10000, 100000}

// BenchmarkKernels covers every kernel on both engines at several
// partition sizes: the model engine runs the instruction-counted
// reference implementations, the native engine the SWAR/tuned paths.
func BenchmarkKernels(b *testing.B) {
	type variant struct {
		kernel string
		engine string
		run    func(e *benchEnv, sc *Scratch) []topk.Result
	}
	variants := []variant{
		{"naive", "model", func(e *benchEnv, _ *Scratch) []topk.Result {
			r, _ := Naive(e.p, e.tables, benchK)
			return r
		}},
		{"libpq", "model", func(e *benchEnv, _ *Scratch) []topk.Result {
			r, _ := Libpq(e.p, e.tables, benchK)
			return r
		}},
		{"avx", "model", func(e *benchEnv, _ *Scratch) []topk.Result {
			r, _ := AVX(e.p, e.tables, benchK)
			return r
		}},
		{"gather", "model", func(e *benchEnv, _ *Scratch) []topk.Result {
			r, _ := Gather(e.p, e.tables, benchK)
			return r
		}},
		{"fastpq", "model", func(e *benchEnv, _ *Scratch) []topk.Result {
			r, _ := e.fast.Scan(e.tables, benchK)
			return r
		}},
		{"fastpq256", "model", func(e *benchEnv, _ *Scratch) []topk.Result {
			r, _ := e.fast.Scan256(e.tables, benchK)
			return r
		}},
		{"quantonly", "model", func(e *benchEnv, _ *Scratch) []topk.Result {
			r, _ := QuantizationOnly(e.p, e.tables, benchK, DefaultKeep)
			return r
		}},
		// The native engine serves the four exact-scan selections with
		// one tuned loop and both Fast Scan widths with the SWAR kernel.
		{"naive", "native", func(e *benchEnv, sc *Scratch) []topk.Result {
			r, _ := ExactNative(e.p, e.tables, benchK, sc)
			return r
		}},
		{"fastpq", "native", func(e *benchEnv, sc *Scratch) []topk.Result {
			r, _ := e.fast.ScanNativeBackend(e.tables, benchK, sc, dispatch.Auto)
			return r
		}},
	}
	for _, n := range benchSizes {
		e := getBenchEnv(b, n)
		for _, v := range variants {
			b.Run(fmt.Sprintf("n=%d/kernel=%s/engine=%s", n, v.kernel, v.engine), func(b *testing.B) {
				sc := NewScratch()
				b.ReportAllocs()
				b.SetBytes(int64(n * M))
				for i := 0; i < b.N; i++ {
					v.run(e, sc)
				}
			})
		}
	}
}

// BenchmarkFastScan is the headline engine comparison of the acceptance
// trajectory: PQ Fast Scan model vs native on 10k and 100k partitions.
// The native run must be allocation-free in the steady state (the
// Scratch is reused) and an order of magnitude faster on the wall clock.
func BenchmarkFastScan(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		e := getBenchEnv(b, n)
		b.Run(fmt.Sprintf("n=%d/engine=model", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n * M))
			for i := 0; i < b.N; i++ {
				e.fast.Scan(e.tables, benchK)
			}
		})
		b.Run(fmt.Sprintf("n=%d/engine=native", n), func(b *testing.B) {
			sc := NewScratch()
			e.fast.ScanNativeBackend(e.tables, benchK, sc, dispatch.Auto) // warm the scratch buffers
			b.ReportAllocs()
			b.SetBytes(int64(n * M))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.fast.ScanNativeBackend(e.tables, benchK, sc, dispatch.Auto)
			}
		})
	}
}

// BenchmarkGroupVisitOrder isolates the OrderGroups estimator fed by the
// precomputed per-group nibble masks.
func BenchmarkGroupVisitOrder(b *testing.B) {
	e := getBenchEnv(b, 100000)
	fs := e.fast
	sc := NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs.groupVisitOrder(e.tables, sc)
	}
}

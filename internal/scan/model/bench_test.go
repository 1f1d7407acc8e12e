package model

import (
	"fmt"
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/scan"
)

// benchEnv is the fixture of internal/scan's kernel benchmarks, built
// the same way (same seeds, so the engine=model rows here and the
// engine=native rows there scan the same partition): n random codes and
// the portion-homogeneous distance tables of the paper's operating
// regime.
type benchEnv struct {
	p      *scan.Partition
	tables quantizer.Tables
	fast   *scan.FastScan
}

func newBenchEnv(b *testing.B, n int) *benchEnv {
	b.Helper()
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
	e := &benchEnv{p: scan.NewPartition(codes, nil), tables: tables}
	fs, err := newLayout(e.p, scan.FastScanOptions{Keep: scan.DefaultKeep, GroupComponents: -1})
	if err != nil {
		b.Fatal(err)
	}
	e.fast = fs
	return e
}

const benchK = 100

// BenchmarkKernels runs every model kernel at the partition sizes of
// internal/scan's benchmark of the same name, whose engine=native rows
// these sit beside.
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		e := newBenchEnv(b, n)
		for _, kern := range Kernels() {
			b.Run(fmt.Sprintf("n=%d/kernel=%s/engine=model", n, kern), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(n * M))
				for i := 0; i < b.N; i++ {
					if _, _, err := Run(kern, e.p, e.fast, e.tables, benchK, scan.DefaultKeep); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFastScan is the model side of the headline comparison: the
// simulator is an order of magnitude slower on the wall clock than the
// engine=native rows in internal/scan, which is why it does not serve.
func BenchmarkFastScan(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		e := newBenchEnv(b, n)
		b.Run(fmt.Sprintf("n=%d/engine=model", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n * M))
			for i := 0; i < b.N; i++ {
				Scan(e.fast, e.tables, benchK)
			}
		})
	}
}

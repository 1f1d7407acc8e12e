package model

import (
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/topk"
)

// randomPartition builds n random PQ 8x8 codes and random distance tables
// with values in [0, 100).
func randomPartition(t *testing.T, n int, seed uint64) (*scan.Partition, quantizer.Tables) {
	t.Helper()
	r := rng.New(seed)
	codes := make([]uint8, n*M)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for i := range tables.Data {
		tables.Data[i] = r.Float32() * 100
	}
	return scan.NewPartition(codes, nil), tables
}

// newLayout orders p's base for opt, as the index orders every base it
// installs, and builds the Fast Scan layout over the result, which the
// layout's Partition returns.
func newLayout(p *scan.Partition, opt scan.FastScanOptions) (*scan.FastScan, error) {
	return scan.NewFastScan(scan.Ordered(p, opt), opt)
}

// rowOf returns the position of the row of p holding id.
func rowOf(p *scan.Partition, id int64) int {
	for i := 0; i < p.N; i++ {
		if p.ID(i) == id {
			return i
		}
	}
	panic("model: test id not in partition")
}

// tombstone deletes the row at position row as the index does: a
// copy-on-write successor of p, and fs rebound to it with the row's
// lane dead.
func tombstone(p *scan.Partition, fs *scan.FastScan, row int) (*scan.Partition, *scan.FastScan) {
	np, _ := p.CloneTombstone(row)
	return np, fs.Rebind(np, fs.Lane(row))
}

func sameResults(t *testing.T, a, b []topk.Result, nameA, nameB string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s returned %d results, %s returned %d", nameA, len(a), nameB, len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Distance != b[i].Distance {
			t.Fatalf("result %d differs: %s=%+v %s=%+v", i, nameA, a[i], nameB, b[i])
		}
	}
}

// sameCounters asserts the model and the serving scan walked the same
// path: identical vector/block accounting.
func sameCounters(t *testing.T, model Stats, native scan.Stats, label string) {
	t.Helper()
	if model.Stats != native {
		t.Fatalf("%s: counters diverge: model %+v native %+v", label, model.Stats, native)
	}
}

// TestKernelsAgree is the exactness invariant of DESIGN.md §6: every
// kernel returns bit-identical top-k results.
func TestKernelsAgree(t *testing.T) {
	for _, n := range []int{1, 7, 16, 100, 1000, 5000} {
		for _, k := range []int{1, 10, 100} {
			p, tables := randomPartition(t, n, uint64(n*1000+k))
			want, _ := Naive(p, tables, k)

			got, _ := Libpq(p, tables, k)
			sameResults(t, want, got, "naive", "libpq")

			got, _ = AVX(p, tables, k)
			sameResults(t, want, got, "naive", "avx")

			got, _ = Gather(p, tables, k)
			sameResults(t, want, got, "naive", "gather")

			for _, keep := range []float64{0, 0.005, 0.05} {
				for _, c := range []int{0, 1, 2, -1} {
					fs, err := newLayout(p, scan.FastScanOptions{Keep: keep, GroupComponents: c})
					if err != nil {
						t.Fatalf("NewFastScan(keep=%v,c=%d): %v", keep, c, err)
					}
					got, _ = Scan(fs, tables, k)
					sameResults(t, want, got, "naive", "fastscan")
				}
			}

			got, _ = QuantizationOnly(p, tables, k, 0.005)
			sameResults(t, want, got, "naive", "quantonly")
		}
	}
}

// TestRunCoversEveryLabel: Run dispatches every label of Kernels to a
// kernel returning the oracle's answer, and refuses an unknown one.
func TestRunCoversEveryLabel(t *testing.T) {
	p, tables := randomPartition(t, 2000, 3)
	fs, err := newLayout(p, scan.FastScanOptions{Keep: 0.01, GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scan.Naive(p, tables, 10)
	for _, kern := range Kernels() {
		got, stats, err := Run(kern, p, fs, tables, 10, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, want, got, "naive", kern.String())
		if stats.Scanned != p.N || stats.Ops.Instructions() <= 0 {
			t.Errorf("%v: empty record %+v", kern, stats)
		}
	}
	if _, _, err := Run(Kernel(99), p, fs, tables, 10, 0.01); err == nil {
		t.Error("unknown kernel label accepted")
	}
}

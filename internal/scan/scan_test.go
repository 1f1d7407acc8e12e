package scan

import (
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// randomPartition builds n random PQ 8x8 codes and random distance tables
// with values in [lo, hi).
func randomPartition(t *testing.T, n int, seed uint64) (*Partition, quantizer.Tables) {
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
	return NewPartition(codes, nil), tables
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

// sameStats asserts two scans walked the exact same path: every counter
// equal.
func sameStats(t *testing.T, a, b Stats, la, lb string) {
	t.Helper()
	if a != b {
		t.Fatalf("stats diverge: %s %+v != %s %+v", la, a, lb, b)
	}
}

// scanEveryBackend runs fs from an empty heap on every available
// backend, asserts each returns want, and all the same statistics,
// which it returns.
func scanEveryBackend(t *testing.T, fs *FastScan, tables quantizer.Tables, k int, want []topk.Result, label string) Stats {
	t.Helper()
	backends := dispatch.AvailableBackends()
	var ref Stats
	for i, be := range backends {
		got, stats := fs.ScanNativeBackend(tables, k, nil, be)
		sameResults(t, want, got, label, "backend:"+be.String())
		if i == 0 {
			ref = stats
		}
		sameStats(t, ref, stats, backends[0].String(), be.String())
	}
	return ref
}

// TestKernelsAgree is the exactness invariant of DESIGN.md §6: every
// scan returns the oracle's top-k, bit for bit.
func TestKernelsAgree(t *testing.T) {
	for _, n := range []int{1, 7, 16, 100, 1000, 5000} {
		for _, k := range []int{1, 10, 100} {
			p, tables := randomPartition(t, n, uint64(n*1000+k))
			want, _ := Naive(p, tables, k)

			got, _ := ExactNative(p, tables, k, nil)
			sameResults(t, want, got, "naive", "exact-native")

			for _, keep := range []float64{0, 0.005, 0.05} {
				for _, c := range []int{0, 1, 2, -1} {
					fs, err := NewFastScan(p, FastScanOptions{Keep: keep, GroupComponents: c})
					if err != nil {
						t.Fatalf("NewFastScan(keep=%v,c=%d): %v", keep, c, err)
					}
					scanEveryBackend(t, fs, tables, k, want, "naive")
				}
			}
		}
	}
}

// TestFastScanPrunes verifies pruning actually happens on clustered data
// where lower bounds are informative.
func TestFastScanPrunes(t *testing.T) {
	p, tables := randomPartition(t, 20000, 7)
	fs, err := NewFastScan(p, FastScanOptions{Keep: 0.01, GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := fs.ScanNativeBackend(tables, 10, nil, dispatch.Auto)
	// Uniform random tables are a pruning worst case (lower bounds carry
	// little signal); clustered data reaches far higher rates — see the
	// integration tests. Here we only require pruning to engage at all
	// and the accounting to balance.
	if stats.PrunedFraction() < 0.05 {
		t.Errorf("pruned fraction %.3f unexpectedly low", stats.PrunedFraction())
	}
	if stats.Candidates+stats.Pruned != stats.LowerBounds {
		t.Errorf("candidates %d + pruned %d != lower bounds %d",
			stats.Candidates, stats.Pruned, stats.LowerBounds)
	}
}

package scan

import (
	"bytes"
	"fmt"
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

// newLayout orders p's base for opt, as the index orders every base it
// installs, and builds the Fast Scan layout over the result, which the
// layout's Partition returns.
func newLayout(p *Partition, opt FastScanOptions) (*FastScan, error) {
	return NewFastScan(Ordered(p, opt), opt)
}

// rowOf returns the position of the row of p holding id.
func rowOf(p *Partition, id int64) int {
	for i := 0; i < p.N; i++ {
		if p.ID(i) == id {
			return i
		}
	}
	panic("scan: test id not in partition")
}

// tombstone deletes the row at position row as the index does: a
// copy-on-write successor of p, and fs rebound to it with the row's
// lane dead.
func tombstone(p *Partition, fs *FastScan, row int) (*Partition, *FastScan) {
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
				for _, c := range []int{0, 1, 2, 3, 4, -1} {
					fs, err := newLayout(p, FastScanOptions{Keep: keep, GroupComponents: c})
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
	fs, err := newLayout(p, FastScanOptions{Keep: 0.01, GroupComponents: -1})
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

// TestBaseAndTailReadAsOne: a partition grown by CloneAppend — base and
// tail, tombstones in both — is row for row the partition built flat
// over the same rows, to every reader: positions, the oracle, the exact
// scans over any range, a layout built over it, a layout built before
// the appends and rebound, Flatten, Compact and a detached stub.
func TestBaseAndTailReadAsOne(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 12; trial++ {
		n := r.Intn(3000) + 2
		flat, tables := randomPartition(t, n, r.Uint64())
		codes := flat.FlatCodes()
		var ids []int64 // nil on even trials: the base's ids are its positions
		if trial%2 == 1 {
			ids = make([]int64, n)
			for i := range ids {
				ids[i] = int64(i)*3 + 7
			}
			flat = NewPartition(codes, ids)
		}
		b := r.Intn(n)
		base := NewPartition(codes[:b*M], nil)
		if ids != nil {
			base = NewPartition(codes[:b*M], ids[:b])
		}
		fsBase, err := newLayout(base, FastScanOptions{Keep: 0.01, GroupComponents: -1})
		if err != nil {
			t.Fatal(err)
		}
		// The flat partition holds the same rows as the base in the order
		// the layout put them in, then the rows to append — each code taken
		// from the input by its id, not read back through the layout.
		base = fsBase.Partition()
		input := func(id int64) []uint8 {
			if ids != nil {
				id = (id - 7) / 3
			}
			return codes[id*M : (id+1)*M]
		}
		var flatIDs []int64
		var flatCodes []uint8
		for i := 0; i < n; i++ {
			id := flat.ID(i)
			if i < b {
				id = base.ID(i)
			}
			flatIDs, flatCodes = append(flatIDs, id), append(flatCodes, input(id)...)
		}
		codes = flatCodes
		if !bytes.Equal(base.FlatCodes(), codes[:b*M]) {
			t.Fatal("the laid-out base does not read back the rows it was given")
		}
		flat = NewPartition(codes, flatIDs)
		// Grow a detached stub and the resident partition alike, in up to
		// three appends.
		p, stub := base, base.Detach()
		for at := b; at < n; {
			m := min(r.Intn(n-at)+1, n-at)
			tailIDs := make([]int64, m)
			for i := range tailIDs {
				tailIDs[i] = flat.ID(at + i)
			}
			p = p.CloneAppend(codes[at*M:(at+m)*M], tailIDs)
			stub = stub.CloneAppend(codes[at*M:(at+m)*M], tailIDs)
			at += m
		}
		fsP := fsBase.Rebind(p, -1) // the base's layout, carried as the index carries it
		for i := 0; i < n; i += 7 {
			flat, _ = flat.CloneTombstone(i)
			p, fsP = tombstone(p, fsP, i)
			stub, _ = stub.CloneTombstone(i)
		}
		hydrated := stub.Hydrate(base.Stored()) // base has no tail to drop

		k := []int{1, 10, 100}[trial%3]
		want, _ := Naive(flat, tables, k)
		for name, q := range map[string]*Partition{"appended": p, "hydrated stub": hydrated, "flattened": p.Flatten(), "compacted": p.Compact()} {
			if name != "compacted" && (q.N != n || q.Live() != flat.Live()) {
				t.Fatalf("%s: N=%d live=%d, want %d/%d", name, q.N, q.Live(), n, flat.Live())
			}
			if name == "compacted" && (q.N != flat.Live() || q.HasDead()) {
				t.Fatalf("compacted: N=%d dead=%d, want %d live rows and no tombstones", q.N, q.DeadCount(), flat.Live())
			}
			if (name == "flattened" || name == "compacted") && q.Tail() != 0 {
				t.Fatalf("%s kept a tail of %d", name, q.Tail())
			}
			if name == "appended" && q.Tail() != n-b {
				t.Fatalf("tail %d after appending %d rows", q.Tail(), n-b)
			}
			for i := 0; i < q.N && name != "compacted"; i++ {
				if q.ID(i) != flat.ID(i) || q.Code(i) != flat.Code(i) {
					t.Fatalf("%s: row %d is (%d, %v), want (%d, %v)", name, i, q.ID(i), q.Code(i), flat.ID(i), flat.Code(i))
				}
			}
			got, _ := Naive(q, tables, k)
			sameResults(t, want, got, "naive(flat)", "naive("+name+")")
			got, _ = ExactNative(q, tables, k, nil)
			sameResults(t, want, got, "naive(flat)", "exact-native("+name+")")

			fs, err := newLayout(q, FastScanOptions{Keep: 0.01, GroupComponents: -1})
			if err != nil {
				t.Fatal(err)
			}
			if fs.Covered() != q.N-q.Tail() || fs.PlainScanned() != fs.KeepN()+q.Tail() {
				t.Fatalf("%s: a fresh layout covers %d of %d base rows", name, fs.Covered(), q.N-q.Tail())
			}
			scanEveryBackend(t, fs, tables, k, want, "naive(flat)")
			if name == "compacted" || name == "flattened" {
				continue // a new base, with no layout to carry
			}
			// The layout of the base, carried over the appends.
			var rebound *FastScan
			if name == "hydrated stub" {
				rebound = fsP.Detach(stub).Hydrate(q)
			} else {
				rebound = fsP.Rebind(q, -1)
			}
			st := scanEveryBackend(t, rebound, tables, k, want, "naive(flat)")
			if st.KeepScanned != fsBase.KeepN()+n-b || st.Scanned != n {
				t.Fatalf("%s: rebound scan plain-scanned %d of %d, want keep %d + %d appended", name, st.KeepScanned, st.Scanned, fsBase.KeepN(), n-b)
			}
		}

		// Any range of positions, and one straddling the seam between
		// base and tail with a dead row (every seventh) on each side of it,
		// against the oracle's arithmetic over the live rows in range.
		lo := r.Intn(n)
		hi := lo + r.Intn(n-lo+1)
		for _, rg := range [][2]int{{lo, hi}, {max(b-8, 0), min(b+8, n)}} {
			wantHeap := topk.New(k)
			for i := rg[0]; i < rg[1]; i++ {
				if !flat.DeadAt(i) {
					wantHeap.Push(flat.ID(i), ADC8(flat.Code(i), tables))
				}
			}
			for name, q := range map[string]*Partition{"flat": flat, "appended": p} {
				gotHeap := topk.New(k)
				LibpqRange(q, rg[0], rg[1], tables, gotHeap)
				sameResults(t, wantHeap.Results(), gotHeap.Results(), fmt.Sprintf("oracle%v", rg), fmt.Sprintf("libpq(%s)%v", name, rg))
			}
		}
	}
}

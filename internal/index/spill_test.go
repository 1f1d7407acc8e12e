package index_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/persist"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd/dispatch"
)

// TestNarrowIDsSpill: a base holds its ids as uint32 offsets from its
// smallest id, and an id no offset holds — 2³²−1 (the spill sentinel
// itself), 2³², 2³²+7, 2⁶²−1 — in its spill. Placed in the keep
// region, among the grouped rows and in the tail, beside 0 and 1, each
// comes back right from every kernel (checked against the scalar
// oracle, Naive), from the partition row by row, through a fold,
// Flatten, Compact, a compaction, a paged view and a save → load →
// save whose two files are equal, and a Delete of each finds its row.
func TestNarrowIDsSpill(t *testing.T) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 36, Dim: 32})
	opt := index.DefaultOptions()
	opt.Partitions = 2
	opt.Seed = 36
	src, err := index.Build(gen.Generate(1500), gen.Generate(1600), opt)
	if err != nil {
		t.Fatal(err)
	}
	// 1 200 rows: a keep region of 6 and 1 194 grouped on c = 1, so
	// grouping moves rows; one tail row; then a batch that folds.
	const n, batch = 1200, 1100
	_, codes, err := src.EncodeRoute(gen.Generate(n + 1 + batch))
	if err != nil {
		t.Fatal(err)
	}
	special := []int64{0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 7, 1<<62 - 1}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i) + 2
	}
	ids[0], ids[1] = special[2], special[5]                           // keep region
	ids[600], ids[601], ids[602] = special[0], special[1], special[3] // grouped
	ix := index.RestoreIDs(src, codes[:n*scan.M], ids, 1<<62)
	if err := ix.ApplyAdd([]int{0}, []int64{special[4]}, codes[n*scan.M:(n+1)*scan.M]); err != nil { // the tail
		t.Fatal(err)
	}
	live := make(map[int64]bool)
	for _, id := range append(ids, special[4]) {
		live[id] = true
	}
	queries := gen.Generate(2)
	check := func(ix *index.Index, tag string) {
		t.Helper()
		p := ix.Parts()[0]
		seen := make(map[int64]bool)
		for i := 0; i < p.N; i++ {
			if id := p.ID(i); !p.DeadAt(i) {
				if !live[id] || seen[id] {
					t.Fatalf("%s: row %d holds id %d (live %v, seen %v)", tag, i, id, live[id], seen[id])
				}
				seen[id] = true
			}
		}
		if len(seen) != len(live) {
			t.Fatalf("%s: %d live rows, want %d", tag, len(seen), len(live))
		}
		checkKernels(t, ix, queries.Row(0), live, tag)
		checkKernels(t, ix, queries.Row(1), live, tag)
	}
	// Three base ids spill, 16 bytes each beside the 4 of every offset,
	// and the tail row's id takes 8.
	if got, want := ix.Parts()[0].IDBytes(), 4*n+16*3+8; got != want {
		t.Fatalf("the partition holds %d id bytes, want %d", got, want)
	}
	check(ix, "restored")

	// A batch fills the tail and folds it: its ids, from the allocator
	// at 2⁶², spill too.
	more := make([]int64, batch)
	for i := range more {
		more[i] = ix.AllocIDs(1)
		live[more[i]] = true
	}
	if err := ix.ApplyAdd(make([]int, batch), more, codes[(n+1)*scan.M:]); err != nil {
		t.Fatal(err)
	}
	if tail := ix.Parts()[0].Tail(); tail >= batch {
		t.Fatalf("a tail of %d was not folded", tail)
	}
	check(ix, "fold")
	index.CheckLayouts(t, ix)

	// Flatten and Compact keep every row's id.
	for _, id := range more[:50] {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	p := ix.Parts()[0]
	flat, compact := p.Flatten(), p.Compact()
	for i, j := 0, 0; i < p.N; i++ {
		if flat.ID(i) != p.ID(i) {
			t.Fatalf("Flatten: row %d holds id %d, want %d", i, flat.ID(i), p.ID(i))
		}
		if !p.DeadAt(i) {
			if compact.ID(j) != p.ID(i) {
				t.Fatalf("Compact: row %d holds id %d, want %d", j, compact.ID(j), p.ID(i))
			}
			j++
		}
	}
	if _, err := ix.CompactPartition(0); err != nil {
		t.Fatal(err)
	}
	check(ix, "compaction")

	if err := ix.AttachStore(t.TempDir(), 1<<22); err != nil {
		t.Fatal(err)
	}
	check(ix, "paged")

	var first, second bytes.Buffer
	if err := persist.WriteIndex(&first, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.ReadIndex(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteIndex(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save → load → save: the two files differ")
	}
	check(loaded, "loaded")

	for _, x := range []*index.Index{loaded, ix} {
		for _, id := range special {
			if err := x.Delete(id); err != nil {
				t.Fatalf("delete of id %d: %v", id, err)
			}
			delete(live, id)
			check(x, fmt.Sprintf("delete of id %d", id))
		}
		index.CheckRouting(t, x)
		for _, id := range special {
			live[id] = true
		}
	}
}

// checkKernels fails unless every kernel, Fast Scan on every backend
// (pinned with dispatch.Force, the process's selection restored when t
// ends), returns the scalar oracle's answer to q — its 10 nearest rows,
// and all of ix's rows — and the oracle's whole answer holds exactly
// the ids of live.
func checkKernels(t *testing.T, ix *index.Index, q []float32, live map[int64]bool, tag string) {
	t.Helper()
	ctx := context.Background()
	orig := dispatch.Active()
	t.Cleanup(func() { _ = dispatch.Force(orig) })
	type path struct {
		kernel  index.Kernel
		backend index.Backend
	}
	paths := []path{{index.KernelLibpq, orig}}
	for _, be := range dispatch.AvailableBackends() {
		paths = append(paths, path{index.KernelFastScan, be})
	}
	for _, k := range []int{10, len(live)} {
		req := index.Request{Query: q, K: k, Kernel: index.KernelNaive, NProbe: ix.Partitions()}
		want, err := ix.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != k {
			t.Fatalf("%s: the oracle returns %d rows, want %d", tag, len(want.Results), k)
		}
		for _, r := range want.Results {
			if !live[r.ID] {
				t.Fatalf("%s: the oracle returns id %d, not a live id", tag, r.ID)
			}
		}
		for _, path := range paths {
			if err := dispatch.Force(path.backend); err != nil {
				t.Fatal(err)
			}
			req.Kernel = path.kernel
			got, err := ix.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Results, want.Results) {
				t.Fatalf("%s: %v/%v k=%d does not return the oracle's answer", tag, path.kernel, path.backend, k)
			}
		}
	}
}

package index

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/layout"
	"pqfastscan/internal/vec"
)

// Shared small index across tests: building is the expensive part.
var (
	testOnce    sync.Once
	testIndex   *Index
	testBase    vec.Matrix
	testQueries vec.Matrix
	testErr     error
)

// search1 is the query most tests here make — one probe on the model
// engine — returning the neighbors and the cell they came from.
func search1(t *testing.T, ix *Index, q []float32, k int, kern Kernel) ([]Result, int) {
	t.Helper()
	resp, err := ix.Query(context.Background(), Request{Query: q, K: k, Kernel: kern})
	if err != nil {
		t.Fatalf("kernel %v: %v", kern, err)
	}
	return resp.Results, resp.Partitions[0]
}

func sharedIndex(t testing.TB) (*Index, vec.Matrix, vec.Matrix) {
	t.Helper()
	testOnce.Do(func() {
		gen := dataset.NewGenerator(dataset.Config{Seed: 31})
		learn := gen.Generate(4000)
		testBase = gen.Generate(30000)
		testQueries = gen.Generate(8)
		opt := DefaultOptions()
		opt.Partitions = 4
		opt.Seed = 31
		testIndex, testErr = Build(learn, testBase, opt)
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testIndex, testBase, testQueries
}

func TestBuildErrors(t *testing.T) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 1, Dim: 32})
	learn := gen.Generate(300)
	base := gen.Generate(100)
	if _, err := Build(learn, base, Options{Partitions: 0}); err == nil {
		t.Error("zero partitions accepted")
	}
	other := dataset.NewGenerator(dataset.Config{Seed: 1, Dim: 64}).Generate(100)
	if _, err := Build(learn, other, Options{Partitions: 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestPartitionsCoverBase(t *testing.T) {
	ix, base, _ := sharedIndex(t)
	seen := make([]bool, base.Rows())
	total := 0
	for _, p := range ix.Parts() {
		total += p.N
		for i := 0; i < p.N; i++ {
			id := p.ID(i)
			if id < 0 || int(id) >= base.Rows() || seen[id] {
				t.Fatalf("partition id %d invalid or duplicated", id)
			}
			seen[id] = true
		}
	}
	if total != base.Rows() {
		t.Fatalf("partitions hold %d of %d vectors", total, base.Rows())
	}
}

func TestRoutingIsNearestCentroid(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		got := ix.RoutePartition(q)
		want, _ := vec.ArgminL2(q, ix.Coarse.Data, ix.Dim)
		if got != want {
			t.Fatalf("query %d routed to %d, nearest centroid is %d", qi, got, want)
		}
	}
}

func TestPartitionMembersNearestToTheirCentroid(t *testing.T) {
	ix, base, _ := sharedIndex(t)
	for pi, p := range ix.Parts() {
		for i := 0; i < p.N; i += 97 {
			row := base.Row(int(p.ID(i)))
			want, _ := vec.ArgminL2(row, ix.Coarse.Data, ix.Dim)
			if want != pi {
				t.Fatalf("vector %d stored in partition %d but nearest cell is %d", p.ID(i), pi, want)
			}
		}
	}
}

// TestAllKernelsAgree is the end-to-end exactness invariant: every scan
// kernel returns identical results through the full IVFADC pipeline.
func TestAllKernelsAgree(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	kernels := []Kernel{KernelNaive, KernelLibpq, KernelFastScan}
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		ref, refPart := search1(t, ix, q, 50, KernelNaive)
		for _, kern := range kernels[1:] {
			got, part := search1(t, ix, q, 50, kern)
			if part != refPart {
				t.Fatalf("kernel %v routed differently", kern)
			}
			if len(got) != len(ref) {
				t.Fatalf("kernel %v returned %d results, want %d", kern, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("query %d kernel %v result %d: %+v != %+v", qi, kern, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestSearchReturnsSortedDistances(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	res, _ := search1(t, ix, queries.Row(0), 20, KernelFastScan)
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance {
			t.Fatalf("results not sorted at %d", i)
		}
	}
}

// TestADCDistancesMatchDecodedVectors: the reported distance must equal
// the exact distance between the query residual and the decoded residual
// code (the ADC definition).
func TestADCDistancesMatchDecodedVectors(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	q := queries.Row(0)
	res, part := search1(t, ix, q, 5, KernelNaive)
	tables := ix.Tables(q, part)
	p := ix.Parts()[part]
	// Locate each result position to recompute its ADC.
	for _, r := range res {
		found := false
		for i := 0; i < p.N; i++ {
			if p.ID(i) == r.ID {
				code := p.Code(i)
				var d float32
				for j := 0; j < ix.PQ.M; j++ {
					d += tables.Row(j)[code[j]]
				}
				if d != r.Distance {
					t.Fatalf("result id %d distance %v, recomputed %v", r.ID, r.Distance, d)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("result id %d not in routed partition", r.ID)
		}
	}
}

func TestSearchMulti(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	q := queries.Row(1)
	single, _ := search1(t, ix, q, 30, KernelFastScan)
	ctx := context.Background()
	all, err := ix.Query(ctx, Request{Query: q, K: 30, Kernel: KernelFastScan, NProbe: ix.Partitions()})
	if err != nil {
		t.Fatal(err)
	}
	multi := all.Results
	// Probing every cell can only improve (or tie) each rank's distance.
	for i := range single {
		if multi[i].Distance > single[i].Distance {
			t.Fatalf("rank %d worsened with full probing: %v > %v", i, multi[i].Distance, single[i].Distance)
		}
	}
	if _, err := ix.Query(ctx, Request{Query: q, K: 10, Kernel: KernelFastScan, NProbe: -1}); err == nil {
		t.Error("negative nprobe accepted")
	}
	if _, err := ix.Query(ctx, Request{Query: q, K: 10, Kernel: KernelFastScan, NProbe: 99}); err == nil {
		t.Error("nprobe beyond partitions accepted")
	}
}

func TestSearchPartitionErrors(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	ctx, q := context.Background(), queries.Row(0)
	if _, err := ix.Query(ctx, Request{Query: q, K: 5, Cells: []int{-1}}); err == nil {
		t.Error("negative partition accepted")
	}
	if _, err := ix.Query(ctx, Request{Query: q, K: 5, Cells: []int{ix.Partitions()}}); err == nil {
		t.Error("partition beyond the last accepted")
	}
	if _, err := ix.Query(ctx, Request{Query: q, K: 5, Kernel: Kernel(42), Cells: []int{0}}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestValidateExplicitCells: the shard-side check of an explicit cell
// list keeps its two named errors and — it runs on every router→shard
// sub-request — costs no allocation on a valid list.
func TestValidateExplicitCells(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	s := ix.Snapshot()
	req := Request{Query: queries.Row(0), K: 5, Kernel: KernelFastScan}
	for _, tc := range []struct {
		cells []int
		want  string
	}{
		{[]int{1, 2, 1}, "cell 1 listed twice"},
		{[]int{0, ix.Partitions()}, "out of range"},
		{[]int{-1}, "out of range"},
	} {
		req.Cells = tc.cells
		if err := ix.validate(s, req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("cells %v: error %v, want one naming %q", tc.cells, err, tc.want)
		}
	}
	// Any nprobe beside explicit cells answers the question twice, 1 too.
	req.Cells, req.NProbe = []int{0}, 1
	if err := ix.validate(s, req); !errors.Is(err, ErrBadRequest) {
		t.Errorf("cells with nprobe 1: error %v, want one wrapping ErrBadRequest", err)
	}
	req.Cells, req.NProbe = []int{2, 0}, 0
	if allocs := testing.AllocsPerRun(100, func() {
		if err := ix.validate(s, req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("validating a 2-cell request allocates %.1f times, want 0", allocs)
	}
}

func TestKernelString(t *testing.T) {
	names := map[Kernel]string{
		KernelNaive: "naive", KernelLibpq: "libpq", KernelFastScan: "fastpq",
		Kernel(42): "kernel(42)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestGroupedMemoryBytes(t *testing.T) {
	ix, base, _ := sharedIndex(t)
	m, err := ix.GroupedMemoryBytes()
	if err != nil {
		t.Fatal(err)
	}
	rows := base.Rows()
	if m.Rows != rows || m.RowMajor != rows*8 {
		t.Fatalf("%d rows, %d row-major bytes; want %d, %d", m.Rows, m.RowMajor, rows, rows*8)
	}
	if m.Packed >= m.RowMajor {
		t.Fatalf("packed layout (%d) not smaller than row-major (%d)", m.Packed, m.RowMajor)
	}
	// An id offset a row (4 bytes; no id of a build spills), a row-major
	// code (8) only for the plain-scanned rows, and the packed blocks,
	// the other rows' only code: a row-major copy of the grouped rows
	// would add 8 a row.
	want, dir := 4*rows, 0
	for c := range ix.Parts() {
		fs, err := ix.FastScanner(c)
		if err != nil {
			t.Fatal(err)
		}
		want += 8*fs.PlainScanned() + fs.Grouped().PackedBytes()
		dir += len(fs.Grouped().Groups) * int(unsafe.Sizeof(layout.Group{}))
	}
	if got := m.Codes + m.IDs + m.Blocks; got != want {
		t.Fatalf("codes, ids and blocks hold %d bytes, want %d (%.1f a row)", got, want, float64(got)/float64(rows))
	}
	if m.Directory != dir || m.Resident() != want+dir {
		t.Fatalf("group directory %d bytes, resident %d; want %d, %d", m.Directory, m.Resident(), dir, want+dir)
	}
}

// TestResidentBytesPerRow pins what a row of a dense index costs in
// RAM: its id is a 4-byte offset from its base's id base, and the whole
// row — id, code bytes and its share of the group directory — stays
// within 12.3 bytes. int64 ids would take 8 and 16 of them.
func TestResidentBytesPerRow(t *testing.T) {
	ix, _, _ := sharedIndex(t)
	m, err := ix.GroupedMemoryBytes()
	if err != nil {
		t.Fatal(err)
	}
	per := func(b int) float64 { return float64(b) / float64(m.Rows) }
	if per(m.IDs) > 4.1 || per(m.Resident()) > 12.3 {
		t.Fatalf("%.2f id bytes and %.2f resident bytes a row, want at most 4.1 and 12.3", per(m.IDs), per(m.Resident()))
	}
}

func TestFastScannerCached(t *testing.T) {
	ix, _, _ := sharedIndex(t)
	a, err := ix.FastScanner(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.FastScanner(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("FastScanner not cached per partition")
	}
}

func TestRecallAgainstGroundTruth(t *testing.T) {
	ix, base, queries := sharedIndex(t)
	gt, err := dataset.GroundTruth(base, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	var results [][]int64
	for qi := 0; qi < queries.Rows(); qi++ {
		res, _ := search1(t, ix, queries.Row(qi), 100, KernelFastScan)
		ids := make([]int64, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		results = append(results, ids)
	}
	// PQ 8x8 with a single-probe IVF on clustered synthetic data should
	// place the true NN in the top-100 most of the time.
	if r := dataset.Recall(results, gt, 100); r < 0.5 {
		t.Errorf("recall@100 = %v, unexpectedly low", r)
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	batch, err := ix.QueryBatch(context.Background(), testQueries, Request{K: 15, Kernel: KernelFastScan})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != queries.Rows() {
		t.Fatalf("batch returned %d result sets", len(batch))
	}
	for qi := 0; qi < queries.Rows(); qi++ {
		want, _ := search1(t, ix, queries.Row(qi), 15, KernelFastScan)
		for i := range want {
			if batch[qi].Results[i] != want[i] {
				t.Fatalf("query %d batch result %d differs", qi, i)
			}
		}
	}
}

func TestSearchBatchDimMismatch(t *testing.T) {
	ix, _, _ := sharedIndex(t)
	bad := vec.NewMatrix(2, ix.Dim+1)
	if _, err := ix.QueryBatch(context.Background(), bad, Request{K: 5, Kernel: KernelFastScan}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestBuildDeterministic: identical seeds must produce identical indexes
// (codes, centroids and therefore query answers).
func TestBuildDeterministic(t *testing.T) {
	gen1 := dataset.NewGenerator(dataset.Config{Seed: 99, Dim: 32})
	learn1 := gen1.Generate(1500)
	base1 := gen1.Generate(4000)
	gen2 := dataset.NewGenerator(dataset.Config{Seed: 99, Dim: 32})
	learn2 := gen2.Generate(1500)
	base2 := gen2.Generate(4000)
	opt := DefaultOptions()
	opt.Partitions = 3
	opt.Seed = 5
	a, err := Build(learn1, base1, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(learn2, base2, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Coarse.Data {
		if a.Coarse.Data[i] != b.Coarse.Data[i] {
			t.Fatal("coarse centroids differ between same-seed builds")
		}
	}
	aParts, bParts := a.Parts(), b.Parts()
	for pi := range aParts {
		if aParts[pi].N != bParts[pi].N {
			t.Fatalf("partition %d sizes differ", pi)
		}
		if !bytes.Equal(aParts[pi].FlatCodes(), bParts[pi].FlatCodes()) {
			t.Fatalf("partition %d codes differ", pi)
		}
	}
}

// TestSearchKLargerThanPartition: k beyond the partition size returns
// every vector, still sorted and identical across kernels.
func TestSearchKLargerThanPartition(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	q := queries.Row(0)
	part := ix.RoutePartition(q)
	k := ix.Parts()[part].N + 50
	ref, _ := search1(t, ix, q, k, KernelNaive)
	if len(ref) != ix.Parts()[part].N {
		t.Fatalf("got %d results for k beyond partition size %d", len(ref), ix.Parts()[part].N)
	}
	got, _ := search1(t, ix, q, k, KernelFastScan)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("oversized-k results differ at rank %d", i)
		}
	}
}

// TestConcurrentMutationAndQueries hammers the index with concurrent
// Add, Delete and Query traffic; the RW lock must keep every query
// consistent (run under -race in CI-style invocations).
func TestConcurrentMutationAndQueries(t *testing.T) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 77, Dim: 32})
	learn := gen.Generate(2000)
	base := gen.Generate(8000)
	opt := DefaultOptions()
	opt.Partitions = 2
	opt.Seed = 77
	ix, err := Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	queries := gen.Generate(4)
	extra := gen.Generate(200)
	ctx := context.Background()

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				req := Request{Query: queries.Row((w + i) % queries.Rows()), K: 10, Kernel: KernelFastScan, NProbe: 1 + i%2}
				if _, err := ix.Query(ctx, req); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < extra.Rows(); i++ {
			ids, err := ix.Add(vec.Matrix{Data: extra.Row(i), Dim: 32})
			if err != nil {
				errc <- err
				return
			}
			if i%3 == 0 {
				ix.Delete(ids[0])
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	added := extra.Rows()
	deleted := (added + 2) / 3
	if got, want := ix.Live(), base.Rows()+added-deleted; got != want {
		t.Fatalf("Live() = %d after concurrent traffic, want %d", got, want)
	}
}

// TestQueryBatchHonorsContext: a canceled context fails the batch.
func TestQueryBatchHonorsContext(t *testing.T) {
	ix, _, queries := sharedIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryBatch(ctx, queries, Request{K: 5, Kernel: KernelFastScan}); err != context.Canceled {
		t.Fatalf("canceled batch returned %v", err)
	}
}

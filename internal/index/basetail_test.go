package index

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/scan/model"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
	"pqfastscan/internal/vec"
)

// fuzzFixture is the small trained index FuzzBaseTailIdentity starts
// every input from (training is the slow part; the partitions of a
// fresh build are immutable and shared), with the vectors it adds and
// the queries it asks.
var fuzzFixture struct {
	once    sync.Once
	ix      *Index
	built   []builtRow // the build's rows by id, routed and encoded by the test
	writes  vec.Matrix
	queries vec.Matrix
	err     error
}

// builtRow is where the test routed a row of the fixture's build and
// how it encoded it.
type builtRow struct {
	cell int
	code [scan.M]uint8
}

// liveRow is one row of the test's own account of the index: what a
// rebuild from scratch would hold.
type liveRow struct {
	id   int64
	code [scan.M]uint8
}

// FuzzBaseTailIdentity: the input bytes drive a sequence of Add,
// AddBatch, Delete and CompactPartition on a small index, RAM or paged.
// After every step all three kernels, on every backend, return the
// exact ids and distances of an index rebuilt from scratch over the
// live rows — which the test tracks on its own, through none of the
// code under test — and the served Fast Scan counters equal the
// model's over the same epoch. A batch of up to 766 rows lands in two
// partitions, so two or three of them carry a tail across foldTail.
// One Delete op picks a row anywhere; the other picks by region — a
// partition's first live row (the keep region), its middle one
// (grouped) or its last (the tail, while there is one) — so dead bits
// by position and by block lane are carried across folds and
// renumbered by compactions. The first byte picks the mode: bit 0 RAM
// or paged, bit 1 the build's ids as they are or wide — every odd id
// moved above 2³² (wideID), so about half of every base's ids, and
// every id an Add issues, spill.
func FuzzBaseTailIdentity(f *testing.F) {
	fx := &fuzzFixture
	fx.once.Do(func() {
		gen := dataset.NewGenerator(dataset.Config{Seed: 77, Dim: 32})
		learn := gen.Generate(1500)
		base := gen.Generate(1600)
		opt := DefaultOptions()
		opt.Partitions = 2
		opt.Seed = 77
		fx.ix, fx.err = Build(learn, base, opt)
		fx.writes = gen.Generate(4096)
		fx.queries = gen.Generate(2)
		if fx.err != nil {
			return
		}
		cells, codes, err := fx.ix.EncodeRoute(base)
		fx.err = err
		for i, c := range cells {
			fx.built = append(fx.built, builtRow{cell: c, code: [scan.M]uint8(codes[i*scan.M:])})
		}
	})
	if fx.err != nil {
		f.Fatal(fx.err)
	}
	f.Add([]byte{0, 0, 1, 1, 200, 2, 9, 0, 5})                             // RAM: add, batch, delete, add
	f.Add([]byte{0, 1, 255, 2, 3, 1, 255, 0, 0, 1, 255, 2, 77, 3, 0})      // RAM: batches across the fold, compaction
	f.Add([]byte{1, 1, 255, 1, 255, 2, 1, 1, 255, 3, 1, 0, 0, 2, 200})     // paged: the same shape
	f.Add([]byte{1, 2, 0, 2, 1, 3, 0, 3, 1, 0, 0, 1, 100, 3, 0, 1, 255})   // paged: deletes and compactions first
	f.Add([]byte{0, 1, 255, 1, 255, 1, 255, 1, 255, 2, 1, 2, 2, 1, 255})   // RAM: one fold after another
	f.Add([]byte{0, 2, 3, 2, 4, 3, 0, 4, 0, 4, 2, 4, 4, 3, 0, 4, 0, 2, 9}) // RAM: deletes after compactions renumbered the rows
	// RAM, then paged: keep, grouped and tail rows of both partitions
	// dead before three batches fold the tails, then more deletes (and,
	// paged, a compaction between them).
	f.Add([]byte{0, 1, 80, 4, 0, 4, 2, 4, 4, 4, 1, 4, 3, 4, 5, 1, 255, 1, 255, 1, 255, 4, 4, 4, 5})
	f.Add([]byte{1, 1, 80, 4, 0, 4, 2, 4, 4, 4, 1, 4, 3, 4, 5, 1, 255, 1, 255, 1, 255, 3, 1, 4, 2})
	// RAM, then paged: three batches fold both tails, then deletes of
	// ex-tail rows (moved into their groups by the fold), of grouped
	// base rows (moved behind them) and of keep rows (not moved).
	f.Add([]byte{0, 1, 255, 1, 255, 1, 255, 4, 4, 4, 5, 4, 2, 4, 3, 4, 0, 4, 1, 2, 77})
	f.Add([]byte{1, 1, 255, 1, 255, 1, 255, 4, 4, 4, 5, 4, 2, 4, 3, 4, 0, 4, 1, 2, 77})
	// Wide ids, RAM and paged: deletes by region, a fold, a compaction.
	f.Add([]byte{2, 4, 0, 4, 2, 4, 4, 1, 255, 1, 255, 1, 255, 4, 5, 3, 0, 2, 9})
	f.Add([]byte{3, 4, 1, 4, 3, 1, 255, 1, 255, 1, 255, 4, 4, 3, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		src := fx.ix
		parts, next := src.Parts(), src.NextID()
		wide := data[0]&2 != 0
		if wide {
			parts = slices.Clone(parts)
			for c, p := range parts {
				ids := make([]int64, p.N)
				for i := range ids {
					ids[i] = wideID(p.ID(i))
				}
				parts[c] = scan.NewPartition(p.FlatCodes(), ids)
			}
			next = wideID(next | 1)
		}
		ix := Restore(src.Dim, src.Coarse, src.PQ, parts, src.opt, next)
		if data[0]&1 == 1 {
			if err := ix.AttachStore(t.TempDir(), 1<<30); err != nil {
				t.Fatal(err)
			}
		}
		// The build's rows as the test encoded them, in the order the
		// build holds them.
		live := make([][]liveRow, len(parts))
		for c, p := range parts {
			for i := 0; i < p.N; i++ {
				id := p.ID(i)
				if wide {
					id = id &^ (1 << 32)
				}
				b := fx.built[id]
				if b.cell != c {
					t.Fatalf("id %d is in partition %d, routed to %d", p.ID(i), c, b.cell)
				}
				live[c] = append(live[c], liveRow{id: p.ID(i), code: b.code})
			}
		}

		written := 0
		add := func(n int) {
			if written+n > fx.writes.Rows() {
				return
			}
			vecs := vec.Matrix{Data: fx.writes.Data[written*ix.Dim : (written+n)*ix.Dim], Dim: ix.Dim}
			written += n
			ids, err := ix.Add(vecs)
			if err != nil {
				t.Fatal(err)
			}
			cells, codes, err := ix.EncodeRoute(vecs)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cells {
				live[c] = append(live[c], liveRow{id: ids[i], code: [scan.M]uint8(codes[i*scan.M : (i+1)*scan.M])})
			}
		}

		ops := data[1:]
		for step := 0; step+1 < len(ops) && step < 32; step += 2 {
			op, arg := ops[step]%5, int(ops[step+1])
			switch op {
			case 0:
				add(1)
			case 1:
				add(3*arg + 1)
			case 2, 4:
				c := arg % len(live)
				n := len(live[c])
				if n == 0 {
					continue
				}
				i := arg * 7919 % n
				if op == 4 {
					// live[c] is in arrival order: its first row is in the
					// keep region, its middle one grouped, its last one in
					// the tail or, once a fold has moved it, an ex-tail row
					// in its group.
					i = []int{0, n / 2, n - 1}[arg/len(live)%3]
				}
				if err := ix.Delete(live[c][i].id); err != nil {
					t.Fatal(err)
				}
				live[c] = append(live[c][:i:i], live[c][i+1:]...)
			case 3:
				if _, err := ix.CompactPartition(arg % len(live)); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstRebuild(t, ix, live, fx.queries, fmt.Sprintf("step %d (op %d, arg %d)", step/2, op, arg))
		}
		checkRouting(t, ix)
		checkLayouts(t, ix)
	})
}

// wideID moves an odd id of the fixture's build above 2³².
func wideID(id int64) int64 { return id | (id&1)<<32 }

// checkAgainstRebuild holds ix to an index restored from the rows in
// live — row by row, every id and code through Code and FlatCodes of
// both, and answer by answer — its dead bits to the rows live says were
// deleted, and its Fast Scan counters to the model's.
func checkAgainstRebuild(t *testing.T, ix *Index, live [][]liveRow, queries vec.Matrix, tag string) {
	t.Helper()
	ctx := context.Background()
	s := ix.snap.Load()
	rebuilt := make([]*scan.Partition, len(live))
	wants := make([]map[int64][scan.M]uint8, len(live))
	for c, rows := range live {
		codes := make([]uint8, 0, len(rows)*scan.M)
		ids := make([]int64, 0, len(rows))
		want := make(map[int64][scan.M]uint8, len(rows))
		for _, r := range rows {
			codes = append(codes, r.code[:]...)
			ids = append(ids, r.id)
			want[r.id] = r.code
		}
		rebuilt[c], wants[c] = scan.NewPartition(codes, ids), want

		// Row by row: a live row holds a live id and its code, a dead row
		// an id that was deleted — so a Delete tombstoned the row its id
		// had moved to, wherever a fold put it.
		p, _, release, err := s.Parts[c].view()
		if err != nil {
			t.Fatal(err)
		}
		n, flat := 0, p.FlatCodes()
		for i := 0; i < p.N; i++ {
			code, ok := want[p.ID(i)]
			if p.DeadAt(i) == ok || ok && code != p.Code(i) {
				t.Fatalf("%s: partition %d row %d (id %d, dead %v) disagrees with the live rows", tag, c, i, p.ID(i), p.DeadAt(i))
			}
			if [scan.M]uint8(flat[i*scan.M:]) != p.Code(i) {
				t.Fatalf("%s: partition %d row %d: FlatCodes and Code disagree", tag, c, i)
			}
			if ok {
				n++
			}
		}
		release()
		if n != len(rows) {
			t.Fatalf("%s: partition %d holds %d live rows, want %d", tag, c, n, len(rows))
		}
	}
	ref := Restore(ix.Dim, ix.Coarse, ix.PQ, rebuilt, ix.opt, ix.NextID())
	// The rebuild, read back through its own layout, holds the very rows.
	for c, p := range ref.Parts() {
		if p.N != len(live[c]) {
			t.Fatalf("%s: rebuilt partition %d holds %d rows, want %d", tag, c, p.N, len(live[c]))
		}
		flat := p.FlatCodes()
		for i := 0; i < p.N; i++ {
			code, ok := wants[c][p.ID(i)]
			if !ok || code != p.Code(i) || code != [scan.M]uint8(flat[i*scan.M:]) {
				t.Fatalf("%s: rebuilt partition %d row %d (id %d) does not hold its code", tag, c, i, p.ID(i))
			}
		}
	}

	paths := scanPaths(t)
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		want, err := ref.Query(ctx, Request{Query: q, K: 20, Kernel: KernelNaive, NProbe: len(live)})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			req := path.request(t)
			req.Query, req.K, req.NProbe = q, 20, len(live)
			got, err := ix.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v: %v", tag, path, err)
			}
			sameAnswer(t, fmt.Sprintf("%s q%d %v vs rebuild", tag, qi, path), got.Results, want.Results)
		}

		// Counters, cell by cell: each bound's model runs the very layout
		// the epoch serves with — hydrated under a pin of its own when
		// paged — and each backend is held to its bound's.
		for c, pe := range s.Parts {
			_, fs, release, err := pe.view()
			if err != nil {
				t.Fatal(err)
			}
			heaps := map[bool]*topk.Heap{false: topk.New(20), true: topk.New(20)}
			wantStats := map[bool]scan.Stats{
				false: model.ScanInto(fs, ix.Tables(q, c), heaps[false]).Stats,
				true:  model.ScanExactInto(fs, ix.Tables(q, c), heaps[true]).Stats,
			}
			release()
			for _, be := range dispatch.AvailableBackends() {
				heap, wantStats := heaps[be.ExactBound()], wantStats[be.ExactBound()]
				forceBackend(t, be)
				served, err := ix.querySnap(ctx, s, Request{Query: q, K: 20, Cells: []int{c}})
				if err != nil {
					t.Fatal(err)
				}
				if served.Stats != wantStats {
					t.Fatalf("%s q%d cell %d %v: served stats %+v, model %+v", tag, qi, c, be, served.Stats, wantStats)
				}
				sameAnswer(t, fmt.Sprintf("%s q%d cell %d %v vs model", tag, qi, c, be), served.Results, heap.Results())
			}
		}
	}
}

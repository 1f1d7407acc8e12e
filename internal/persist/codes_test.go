package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/layout"
	"pqfastscan/internal/scan"
)

// TestCodesReadBackAsEncoded: a grouped row's code is stored only in
// its packed block, so every reader of codes goes through the layout.
// Whatever reads them — Partition.Code and FlatCodes, on RAM epochs, on
// the materialized and on the pinned views of paged ones, and the code
// bytes a saved file holds — must read back, row for row, PQ.Encode of
// that row's residual, computed here from the vector the test added,
// not from anything the index stores. Three seeds, every grouping
// depth, RAM and paged, after a build, Adds, a fold, Deletes and
// compactions.
func TestCodesReadBackAsEncoded(t *testing.T) {
	for _, seed := range []uint64{3, 17, 29} {
		for c := 0; c <= layout.MaxGroupComponents; c++ {
			for _, paged := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed=%d/c=%d/paged=%v", seed, c, paged), func(t *testing.T) {
					checkCodesReadBack(t, seed, c, paged)
				})
			}
		}
	}
}

func checkCodesReadBack(t *testing.T, seed uint64, c int, paged bool) {
	gen := dataset.NewGenerator(dataset.Config{Seed: seed, Dim: 16})
	learn, base := gen.Generate(600), gen.Generate(1200)
	opt := index.DefaultOptions()
	opt.Partitions, opt.Seed, opt.KMeansIter, opt.OptimizeAssignment = 2, seed, 5, false
	opt.FastScan.GroupComponents = c
	ix, err := index.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	if paged {
		if err := ix.AttachStore(t.TempDir(), 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	vecs := map[int64]encoded{}
	for i := 0; i < base.Rows(); i++ {
		vecs[int64(i)] = encoded{v: base.Row(i)}
	}
	add := func(n int) {
		added := gen.Generate(n)
		ids, err := ix.Add(added)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			vecs[id] = encoded{v: added.Row(i)}
		}
	}
	checkEncoded(t, ix, vecs, "build")
	add(300)
	checkEncoded(t, ix, vecs, "add")
	// Enough rows for a tail to fill: 2 048 rows, about half a cell each.
	add(2048)
	tails := 0
	for _, st := range ix.PartitionStats() {
		tails += st.Tail
	}
	if tails >= 300+2048 {
		t.Fatal("no partition folded its tail")
	}
	checkEncoded(t, ix, vecs, "fold")
	for id := int64(0); id < ix.NextID(); id += 5 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	checkEncoded(t, ix, vecs, "delete")
	for cell := range ix.Partitions() {
		if _, err := ix.CompactPartition(cell); err != nil {
			t.Fatal(err)
		}
	}
	checkEncoded(t, ix, vecs, "compaction")
}

// encoded is a vector the test added and, once computed, its cell and
// code.
type encoded struct {
	v    []float32
	cell int
	code *[8]uint8
}

// checkEncoded holds every code ix gives out to the test's own encoding
// of the vector it added under that id.
func checkEncoded(t *testing.T, ix *index.Index, vecs map[int64]encoded, step string) {
	t.Helper()
	encode := func(cell int, id int64) [8]uint8 {
		e, ok := vecs[id]
		if !ok {
			t.Fatalf("%s: cell %d holds id %d, which was never added", step, cell, id)
		}
		if e.code == nil {
			e.cell, e.code = ix.RoutePartition(e.v), new([8]uint8)
			residual, centroid := make([]float32, len(e.v)), ix.Coarse.Row(e.cell)
			for d := range e.v {
				residual[d] = e.v[d] - centroid[d]
			}
			ix.PQ.Encode(residual, e.code[:])
			vecs[id] = e
		}
		if e.cell != cell {
			t.Fatalf("%s: id %d is in cell %d, routed to %d", step, id, cell, e.cell)
		}
		return *e.code
	}
	capture, err := ix.Capture()
	if err != nil {
		t.Fatal(err)
	}
	defer capture.Release()
	for view, parts := range map[string][]*scan.Partition{"Parts": ix.Parts(), "Capture": capture.Parts} {
		for cell, p := range parts {
			flat := p.FlatCodes()
			for i := 0; i < p.N; i++ {
				want := encode(cell, p.ID(i))
				if got := p.Code(i); got != want {
					t.Fatalf("%s, %s: cell %d row %d Code = %v, want %v", step, view, cell, i, got, want)
				}
				if got := [8]uint8(flat[i*8:]); got != want {
					t.Fatalf("%s, %s: cell %d row %d FlatCodes = %v, want %v", step, view, cell, i, got, want)
				}
			}
		}
	}

	// The file's partition sections close it, each a row count, the
	// codes, the ids and the tombstones, before the checksum and the end
	// magic: found from the end, they are read here without the reader.
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	off := len(file) - 4 - len(endMagic)
	for _, p := range capture.Parts {
		off -= 4 + 16*p.N + 4 + 8*p.DeadCount()
	}
	le := binary.LittleEndian
	for cell, p := range capture.Parts {
		n := int(le.Uint32(file[off:]))
		if n != p.N {
			t.Fatalf("%s: file cell %d holds %d rows, want %d", step, cell, n, p.N)
		}
		codes, ids := file[off+4:off+4+8*n], file[off+4+8*n:off+4+16*n]
		for i := 0; i < n; i++ {
			if got, want := [8]uint8(codes[8*i:]), encode(cell, int64(le.Uint64(ids[8*i:]))); got != want {
				t.Fatalf("%s: file cell %d row %d holds %v, want %v", step, cell, i, got, want)
			}
		}
		off += 4 + 16*n + 4 + 8*int(le.Uint32(file[off+4+16*n:]))
	}
}

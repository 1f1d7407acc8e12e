package index

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/scan"
)

// checkAliasesBase fails unless p's base holds row-major code bytes for
// exactly its keep region — the packed blocks of fs's layout, p's own,
// are every other base row's only code — p holds one 4-byte id offset
// a base row and spills none (the ids of these fixtures span far less
// than 2³²), and ordering a tail-free p again hands back p itself.
func checkAliasesBase(t *testing.T, tag string, p *scan.Partition, fs *scan.FastScan, opt scan.FastScanOptions) {
	t.Helper()
	codes, idOff, blocks := p.Stored()
	g, keep, base := fs.Grouped(), fs.KeepN(), p.N-p.Tail()
	if g.N == 0 || g.N != base-keep {
		t.Fatalf("%s: layout groups %d rows of a base of %d (keep %d)", tag, g.N, base, keep)
	}
	if len(codes) != keep*scan.M {
		t.Fatalf("%s: the base holds %d row-major code bytes, want %d for its %d keep rows", tag, len(codes), keep*scan.M, keep)
	}
	if unsafe.SliceData(blocks) != unsafe.SliceData(g.Blocks) || len(blocks) != g.PackedBytes() {
		t.Fatalf("%s: the base's blocks are not its layout's", tag)
	}
	if len(idOff) != base || p.IDBytes() != 4*base+8*p.Tail() {
		t.Fatalf("%s: %d id offsets and %d id bytes for a base of %d and a tail of %d, want one offset a base row and no spill",
			tag, len(idOff), p.IDBytes(), base, p.Tail())
	}
	if p.Tail() == 0 && scan.Ordered(p, opt) != p {
		t.Fatalf("%s: ordering an ordered base is not the identity", tag)
	}
}

// checkEpochsAliasBase runs checkAliasesBase on every epoch of ix's
// current snapshot, hydrating the layouts of paged epochs under a pin.
func checkEpochsAliasBase(t *testing.T, ix *Index, tag string) {
	t.Helper()
	for c, pe := range ix.snap.Load().Parts {
		tag := fmt.Sprintf("%s, partition %d", tag, c)
		p, fs, release, err := pe.view()
		if err != nil {
			t.Fatal(err)
		}
		checkAliasesBase(t, tag, p, fs, ix.opt.FastScan)
		release()
	}
}

// TestLayoutAliasesBase: wherever a base is born — Build, Restore of
// rows in id order (the order files were written in before bases were
// kept in layout order), a fold, a compaction — it holds row-major
// codes for its keep region only, the Fast Scan layout's packed blocks
// hold the rest, and the base holds its ids as 4-byte offsets; so does
// a restricted index's and a paged epoch's hydrated one.
func TestLayoutAliasesBase(t *testing.T) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 5, Dim: 32})
	learn, base := gen.Generate(1500), gen.Generate(3000)
	opt := DefaultOptions()
	opt.Partitions = 2
	opt.Seed = 5
	ix, err := Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkEpochsAliasBase(t, ix, "build")

	// Every row of a build moves to its group: the keep region aside,
	// the ids of a base are not in the ascending order Build made them in.
	inIDOrder := make([]*scan.Partition, ix.Partitions())
	for c, p := range ix.Parts() {
		ids := make([]int64, p.N)
		for i := range ids {
			ids[i] = p.ID(i)
		}
		if slices.IsSorted(ids) {
			t.Fatalf("partition %d: a built base is still in id order", c)
		}
		perm := make([]int, p.N)
		for i := range perm {
			perm[i] = i
		}
		slices.SortFunc(perm, func(a, b int) int { return int(ids[a] - ids[b]) })
		codes := make([]uint8, 0, p.N*scan.M)
		for _, i := range perm {
			code := p.Code(i)
			codes = append(codes, code[:]...)
		}
		slices.Sort(ids)
		inIDOrder[c] = scan.NewPartition(codes, ids)
	}
	restored := Restore(ix.Dim, ix.Coarse, ix.PQ, inIDOrder, ix.opt, ix.NextID())
	checkEpochsAliasBase(t, restored, "restore")
	for c, p := range restored.Parts() {
		want := ix.Parts()[c]
		if !slices.Equal(p.FlatCodes(), want.FlatCodes()) {
			t.Fatalf("partition %d: restoring rows in id order does not give the built base", c)
		}
	}

	// A fold: enough rows that both tails reach foldTail.
	if _, err := ix.Add(gen.Generate(3 * foldTail)); err != nil {
		t.Fatal(err)
	}
	for c, st := range ix.PartitionStats() {
		if st.Tail >= foldTail {
			t.Fatalf("partition %d: a tail of %d was not folded", c, st.Tail)
		}
	}
	checkEpochsAliasBase(t, ix, "fold")

	for id := int64(0); id < 3000; id += 7 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for c := range ix.Partitions() {
		if _, err := ix.CompactPartition(c); err != nil {
			t.Fatal(err)
		}
	}
	checkEpochsAliasBase(t, ix, "compaction")

	shard, err := ix.RestrictCells([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := shard.FastScanner(1)
	if err != nil {
		t.Fatal(err)
	}
	checkAliasesBase(t, "restricted cell 1", shard.snap.Load().Parts[1].Part, fs, ix.opt.FastScan)

	if err := restored.AttachStore(t.TempDir(), 1<<30); err != nil {
		t.Fatal(err)
	}
	checkEpochsAliasBase(t, restored, "paged")
}

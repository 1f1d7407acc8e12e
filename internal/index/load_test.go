package index_test

import (
	"path/filepath"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/persist"
)

// TestLoadedEpochsHaveLayouts: an index loaded from a file, whole or a
// subset of its cells (every other cell empty), and then attached to a
// disk store, holds every epoch to index.CheckLayouts.
func TestLoadedEpochsHaveLayouts(t *testing.T) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 44, Dim: 32})
	opt := index.DefaultOptions()
	opt.Partitions = 4
	opt.Seed = 44
	built, err := index.Build(gen.Generate(2000), gen.Generate(4000), opt)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 4000; id += 9 {
		if err := built.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "x.pqfsidx")
	if err := persist.SaveIndex(path, built); err != nil {
		t.Fatal(err)
	}
	for _, cells := range [][]int{nil, {1, 3}} {
		ix, err := persist.LoadIndexCells(path, cells)
		if err != nil {
			t.Fatal(err)
		}
		index.CheckLayouts(t, ix)
		if err := ix.AttachStore(t.TempDir(), 1<<22); err != nil {
			t.Fatal(err)
		}
		index.CheckLayouts(t, ix)
	}
}

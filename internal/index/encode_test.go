package index

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/simd/dispatch"
)

// TestBuildIdenticalAcrossBackends extends the exactness invariant
// (DESIGN.md §6) from queries to construction: a seeded Build under swar
// (k-means and encoding on the scalar vec.ArgminL2 loop) and under
// asm-avx2 (on the eight-row nearest-centroid kernel) trains the same
// coarse centroids and codebooks, bit for bit, and stores the same ids
// and codes in every partition. The base set is large enough for
// EncodeRoute to chunk it over cores.
func TestBuildIdenticalAcrossBackends(t *testing.T) {
	if !dispatch.AVX2.Available() {
		t.Skip("asm-avx2 is not available on this CPU")
	}
	orig := dispatch.Active()
	t.Cleanup(func() { _ = dispatch.Force(orig) })
	build := func(be dispatch.Backend) *Index {
		if err := dispatch.Force(be); err != nil {
			t.Fatal(err)
		}
		gen := dataset.NewGenerator(dataset.Config{Seed: 5, Dim: 64})
		opt := DefaultOptions()
		opt.Partitions = 3
		opt.Seed = 5
		ix, err := Build(gen.Generate(1500), gen.Generate(parallelRows+1000), opt)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	a, b := build(dispatch.SWAR), build(dispatch.AVX2)
	sameBits := func(what string, x, y []float32) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %d values on swar, %d on asm-avx2", what, len(x), len(y))
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				t.Fatalf("%s[%d]: %g on swar, %g on asm-avx2", what, i, x[i], y[i])
			}
		}
	}
	sameBits("coarse centroids", a.Coarse.Data, b.Coarse.Data)
	for j := range a.PQ.Codebooks {
		sameBits(fmt.Sprint("codebook ", j), a.PQ.Codebooks[j].Data, b.PQ.Codebooks[j].Data)
	}
	pa, pb := a.Parts(), b.Parts()
	for c := range pa {
		if pa[c].N != pb[c].N {
			t.Fatalf("partition %d: %d rows on swar, %d on asm-avx2", c, pa[c].N, pb[c].N)
		}
		for i := 0; i < pa[c].N; i++ {
			if pa[c].ID(i) != pb[c].ID(i) {
				t.Fatalf("partition %d row %d: id %d on swar, %d on asm-avx2", c, i, pa[c].ID(i), pb[c].ID(i))
			}
		}
		if !bytes.Equal(pa[c].FlatCodes(), pb[c].FlatCodes()) {
			t.Fatalf("partition %d: codes differ between swar and asm-avx2", c)
		}
	}
}

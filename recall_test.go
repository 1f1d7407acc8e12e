package pqfastscan_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pqfastscan"
)

func buildRecallIndex(t *testing.T) (*pqfastscan.Index, pqfastscan.Matrix) {
	t.Helper()
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 99})
	learn := gen.Generate(3000)
	base := gen.Generate(16000)
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 8
	opt.Seed = 99
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx, gen.Generate(6)
}

// TestAutoConflictSemantics: explicit options always override a recall
// target — WithNProbe and WithCells pin the probe set — and every other
// option means under a recall target what it means alone.
func TestAutoConflictSemantics(t *testing.T) {
	idx, queries := buildRecallIndex(t)
	ctx := context.Background()
	q := queries.Row(0)

	// Explicit nprobe wins over the prefix the target would pick.
	got, err := idx.Search(ctx, q, 10, pqfastscan.WithTargetRecall(0.5), pqfastscan.WithNProbe(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Partitions) != 3 {
		t.Fatalf("explicit WithNProbe(3) overridden: probed %v", got.Partitions)
	}
	want, err := idx.Search(ctx, q, 10, pqfastscan.WithNProbe(3))
	if err != nil {
		t.Fatal(err)
	}
	sameResultSlices(t, "recall+nprobe vs nprobe", got.Results, want.Results)

	// The scan counters tell the configurations apart where the
	// (bit-identical) results cannot: the exact kernel computes no lower
	// bounds.
	recall := pqfastscan.WithTargetRecall(0.7)
	prefix, err := idx.Search(ctx, q, 10, recall)
	if err != nil {
		t.Fatal(err)
	}
	np, naive, stats := pqfastscan.WithNProbe(len(prefix.Partitions)), pqfastscan.WithKernel(pqfastscan.KernelNaive), pqfastscan.WithStats()
	got, err = idx.Search(ctx, q, 10, recall, naive, stats)
	if err != nil {
		t.Fatal(err)
	}
	want, err = idx.Search(ctx, q, 10, np, naive, stats)
	if err != nil {
		t.Fatal(err)
	}
	sameResultSlices(t, "recall+kernel", got.Results, want.Results)
	if *got.Stats != *want.Stats {
		t.Fatalf("recall+kernel ran a different configuration: stats %+v vs %+v", *got.Stats, *want.Stats)
	}

	// Explicit cells pin routing entirely.
	got, err = idx.Search(ctx, q, 10, pqfastscan.WithTargetRecall(1.0), pqfastscan.WithCells(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Partitions) != 2 || got.Partitions[0] != 1 || got.Partitions[1] != 2 {
		t.Fatalf("explicit WithCells overridden: probed %v", got.Partitions)
	}

	// Invalid recall targets are rejected.
	for _, r := range []float64{0, -0.5, 1.01} {
		if _, err := idx.Search(ctx, q, 10, pqfastscan.WithTargetRecall(r)); err == nil {
			t.Errorf("WithTargetRecall(%g) accepted", r)
		}
	}
}

// plannedPrefixLen is how many cells WithTargetRecall(r) probed for each
// of buildRecallIndex's six queries at the commit before the planner
// lost its kernel dimension — the recall→nprobe rule did not change
// with it, nor when it moved into the index's Query. The index build is
// seeded and reproducible, but its k-means sums are float32 and arm64
// fuses multiply-adds, so the golden values hold on amd64 (where they
// were taken) and are checked only there.
var plannedPrefixLen = map[float64][6]int{
	0.3:  {3, 3, 3, 2, 2, 3},
	0.7:  {6, 6, 6, 6, 5, 6},
	0.95: {8, 8, 8, 8, 8, 8},
	1.0:  {8, 8, 8, 8, 8, 8},
}

// TestPlannedBitIdentity: a recall-targeted answer must be bit-identical
// to the fixed-option query probing the same prefix, and that prefix is
// the one the golden table records.
func TestPlannedBitIdentity(t *testing.T) {
	idx, queries := buildRecallIndex(t)
	ctx := context.Background()

	for _, recall := range []float64{0.3, 0.7, 0.95, 1.0} {
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			got, err := idx.Search(ctx, q, 10, pqfastscan.WithTargetRecall(recall))
			if err != nil {
				t.Fatal(err)
			}
			// The probe set must be a prefix of the WithNProbe ranking:
			// reproduce it with the explicit option.
			want, err := idx.Search(ctx, q, 10, pqfastscan.WithNProbe(len(got.Partitions)))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Partitions, want.Partitions) {
				t.Fatalf("recall %g q%d: probed %v vs fixed %v", recall, qi, got.Partitions, want.Partitions)
			}
			sameResultSlices(t, "recall vs fixed", got.Results, want.Results)
			if golden := plannedPrefixLen[recall]; runtime.GOARCH == "amd64" && len(got.Partitions) != golden[qi] {
				t.Errorf("recall %g q%d: probed %d cells %v, the golden table says %d", recall, qi, len(got.Partitions), got.Partitions, golden[qi])
			}
		}
	}
}

// TestRecallBatchIsItsRows: a batch is its rows. Every row of a
// recall-targeted SearchBatch picks its own prefix, so it answers
// exactly what Search answers for that row alone: probe set, ids and
// distances. (When a batch took row 0's prefix for every row, q3 and
// q4 probed three cells at r = 0.3 in a batch and two alone.)
func TestRecallBatchIsItsRows(t *testing.T) {
	idx, queries := buildRecallIndex(t)
	ctx := context.Background()
	for _, recall := range []float64{0.3, 0.7} {
		batch, err := idx.SearchBatch(ctx, queries, 10, pqfastscan.WithTargetRecall(recall))
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != queries.Rows() {
			t.Fatalf("recall %g: %d batch answers for %d rows", recall, len(batch), queries.Rows())
		}
		for qi := range batch {
			alone, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithTargetRecall(recall))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(batch[qi].Partitions, alone.Partitions) {
				t.Fatalf("recall %g q%d: the batch probed %v, the row alone %v", recall, qi, batch[qi].Partitions, alone.Partitions)
			}
			sameResultSlices(t, fmt.Sprintf("recall %g q%d batch vs alone", recall, qi), batch[qi].Results, alone.Results)
		}
	}
}

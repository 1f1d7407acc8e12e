package pqfastscan

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pqfastscan/internal/fsio"
	"pqfastscan/internal/wal"
)

func buildSmall(t *testing.T) (*Index, *Dataset) {
	t.Helper()
	gen := NewSyntheticDataset(DatasetConfig{Seed: 7})
	learn := gen.Generate(1500)
	base := gen.Generate(4000)
	opt := DefaultBuildOptions()
	opt.Partitions = 4
	ix, err := Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix, gen
}

// sameSearch asserts both indexes answer a fixed query set identically.
func sameSearch(t *testing.T, a, b *Index, gen *Dataset, label string) {
	t.Helper()
	queries := gen.Generate(20)
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		ra, err := a.Search(context.Background(), q, 10, WithNProbe(a.Partitions()))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(context.Background(), q, 10, WithNProbe(b.Partitions()))
		if err != nil {
			t.Fatal(err)
		}
		if len(ra.Results) != len(rb.Results) {
			t.Fatalf("%s: query %d: %d vs %d results", label, qi, len(ra.Results), len(rb.Results))
		}
		for i := range ra.Results {
			if ra.Results[i] != rb.Results[i] {
				t.Fatalf("%s: query %d result %d: %+v vs %+v", label, qi, i, ra.Results[i], rb.Results[i])
			}
		}
	}
}

func TestRecoverReplaysAcknowledgedMutations(t *testing.T) {
	dir := t.TempDir()
	ix, gen := buildSmall(t)
	if err := ix.WithWAL(dir); err != nil {
		t.Fatal(err)
	}

	// The oracle applies the same mutations with no WAL and no crash.
	oracle, _ := buildSmall(t)

	extra := gen.Generate(50)
	ids, err := ix.AddBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	oids, err := oracle.AddBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if ids[i] != oids[i] {
			t.Fatalf("id divergence at %d: %d vs %d", i, ids[i], oids[i])
		}
	}
	for _, id := range []int64{ids[3], ids[10], 7} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": drop the handle without checkpointing and recover from
	// disk alone.
	if err := ix.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.CloseWAL()
	if rec.Live() != oracle.Live() {
		t.Fatalf("recovered live %d, oracle %d", rec.Live(), oracle.Live())
	}
	sameSearch(t, rec, oracle, gen, "recovered")

	// Ids keep advancing from where the crashed process left off.
	newIDs, err := rec.AddBatch(gen.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range newIDs {
		for _, old := range ids {
			if id == old {
				t.Fatalf("recovered index re-issued id %d", id)
			}
		}
	}
}

func TestRecoverTwiceIsIdempotent(t *testing.T) {
	// A crash during recovery's own checkpoint makes the next recovery
	// replay the same records again; both must converge to one state.
	dir := t.TempDir()
	ix, gen := buildSmall(t)
	if err := ix.WithWAL(dir); err != nil {
		t.Fatal(err)
	}
	ids, err := ix.AddBatch(gen.Generate(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	ix.CloseWAL()

	// First recovery, then sabotage its checkpoint back to the pre-
	// recovery shape: restore the replayed segment so it replays again.
	segsBefore, err := wal.Segments(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := make(map[string][]byte)
	for _, s := range segsBefore {
		b, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		raw[s.Path] = b
	}
	rec1, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec1.CloseWAL()
	for path, b := range raw {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec2, err := Recover(dir)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer rec2.CloseWAL()
	if rec1.Live() != rec2.Live() {
		t.Fatalf("live diverged: %d vs %d", rec1.Live(), rec2.Live())
	}
	sameSearch(t, rec1, rec2, gen, "double replay")
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	ix, gen := buildSmall(t)
	if err := ix.WithWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AddBatch(gen.Generate(20)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs, err := wal.Segments(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Epoch != 2 {
		t.Fatalf("segments after checkpoint: %+v, want only epoch 2", segs)
	}
	st, ok := ix.WALStats()
	if !ok || st.Epoch != 2 {
		t.Fatalf("WALStats after checkpoint: %+v ok=%v", st, ok)
	}

	// Mutations after the checkpoint land in the new segment and are
	// recovered over the new snapshot.
	ids, err := ix.AddBatch(gen.Generate(5))
	if err != nil {
		t.Fatal(err)
	}
	live := ix.Live()
	ix.CloseWAL()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	if rec.Live() != live {
		t.Fatalf("recovered live %d, want %d", rec.Live(), live)
	}
	for _, id := range ids {
		if err := rec.Delete(id); err != nil {
			t.Fatalf("post-checkpoint add %d not recovered: %v", id, err)
		}
	}
}

func TestWithWALRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	ix, _ := buildSmall(t)
	if err := ix.WithWAL(dir); err != nil {
		t.Fatal(err)
	}
	ix.CloseWAL()
	other, _ := buildSmall(t)
	if err := other.WithWAL(dir); err == nil {
		t.Fatal("WithWAL over existing durable state succeeded")
	}
	if !HasDurable(dir) {
		t.Fatal("HasDurable false for a durable directory")
	}
	if HasDurable(t.TempDir()) {
		t.Fatal("HasDurable true for an empty directory")
	}
}

func TestRecoverRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	ix, gen := buildSmall(t)
	if err := ix.WithWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AddBatch(gen.Generate(5)); err != nil {
		t.Fatal(err)
	}
	ix.CloseWAL()
	path := filepath.Join(dir, SnapshotFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte mid-file: the CRC must reject it at load.
	corrupt := append([]byte(nil), b...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("recovery accepted a corrupt snapshot")
	}

	// Truncate the file: the missing end magic must reject it even
	// before CRC comparison.
	if err := os.WriteFile(path, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("recovery accepted a truncated snapshot")
	}
}

func TestDeleteNotFoundNotLogged(t *testing.T) {
	dir := t.TempDir()
	ix, _ := buildSmall(t)
	if err := ix.WithWAL(dir); err != nil {
		t.Fatal(err)
	}
	defer ix.CloseWAL()
	before, _ := ix.WALStats()
	if err := ix.Delete(1 << 40); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of absent id: %v", err)
	}
	after, _ := ix.WALStats()
	if after.Records != before.Records {
		t.Fatalf("failed delete reached the log: %d -> %d records", before.Records, after.Records)
	}
}

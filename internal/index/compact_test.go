package index

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/vec"
)

func buildMutable(t *testing.T, seed uint64) (*Index, *dataset.Generator) {
	t.Helper()
	gen := dataset.NewGenerator(dataset.Config{Seed: seed, Dim: 32})
	opt := DefaultOptions()
	opt.Partitions = 3
	opt.Seed = seed
	ix, err := Build(gen.Generate(2000), gen.Generate(9000), opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix, gen
}

// TestDeleteNotFound pins the typed-error contract: deleting a
// never-assigned id, and deleting the same id twice, both return
// ErrNotFound; a live id deletes cleanly.
func TestDeleteNotFound(t *testing.T) {
	ix, _ := buildMutable(t, 61)
	if err := ix.Delete(4); err != nil {
		t.Fatalf("delete of live id: %v", err)
	}
	if err := ix.Delete(4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete returned %v, want ErrNotFound", err)
	}
	if err := ix.Delete(1 << 40); !errors.Is(err, ErrNotFound) {
		t.Fatalf("never-assigned id returned %v, want ErrNotFound", err)
	}
	if err := ix.Delete(-7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("negative id returned %v, want ErrNotFound", err)
	}
}

// TestCompactReclaimsTombstones: compaction removes every tombstoned row
// from a partition past the threshold, bumps its epoch, and leaves
// search results bit-identical (deleted ids were already excluded).
func TestCompactReclaimsTombstones(t *testing.T) {
	ix, gen := buildMutable(t, 62)
	queries := gen.Generate(6)
	ctx := context.Background()

	// Warm every Fast Scan layout so compaction exercises the eager
	// rebuild path.
	if _, err := ix.Query(ctx, Request{Query: queries.Row(0), K: 5, Kernel: KernelFastScan, NProbe: 3}); err != nil {
		t.Fatal(err)
	}

	for id := int64(0); id < 9000; id += 3 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	statsBefore := ix.PartitionStats()
	liveBefore := ix.Live()

	type answer struct{ results []Result }
	paths := scanPaths(t)
	capture := func() []answer {
		var out []answer
		for qi := 0; qi < queries.Rows(); qi++ {
			for _, path := range paths {
				req := path.request(t)
				req.Query, req.K, req.NProbe = queries.Row(qi), 25, 3
				resp, err := ix.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, answer{results: resp.Results})
			}
		}
		return out
	}
	before := capture()

	results, err := ix.Compact(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no partition compacted despite ~33% dead ratio everywhere")
	}
	reclaimed := 0
	for _, r := range results {
		reclaimed += r.Reclaimed
	}
	wantDead := 0
	for _, st := range statsBefore {
		wantDead += st.Dead
	}
	if reclaimed != wantDead {
		t.Fatalf("reclaimed %d rows, want %d", reclaimed, wantDead)
	}

	for i, st := range ix.PartitionStats() {
		if st.Dead != 0 {
			t.Fatalf("partition %d still holds %d tombstones after compaction", i, st.Dead)
		}
		if st.Epoch <= statsBefore[i].Epoch {
			t.Fatalf("partition %d epoch did not advance (%d -> %d)", i, statsBefore[i].Epoch, st.Epoch)
		}
		if st.Live != statsBefore[i].Live {
			t.Fatalf("partition %d live count changed: %d -> %d", i, statsBefore[i].Live, st.Live)
		}
	}
	if ix.Live() != liveBefore {
		t.Fatalf("Live() changed across compaction: %d -> %d", liveBefore, ix.Live())
	}

	after := capture()
	for i := range before {
		if len(before[i].results) != len(after[i].results) {
			t.Fatalf("answer %d result count changed across compaction", i)
		}
		for j := range before[i].results {
			if before[i].results[j] != after[i].results[j] {
				t.Fatalf("answer %d rank %d changed across compaction: %+v -> %+v",
					i, j, before[i].results[j], after[i].results[j])
			}
		}
	}

	// An immediately repeated compaction is a no-op.
	again, err := ix.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second compaction compacted %d partitions, want 0", len(again))
	}
}

// TestCompactThresholdRespected: partitions below the dead-ratio
// threshold are left alone.
func TestCompactThresholdRespected(t *testing.T) {
	ix, _ := buildMutable(t, 63)
	// Tombstone a handful of rows: dead ratio well under 50%.
	for id := int64(0); id < 60; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	results, err := ix.Compact(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("compacted %d partitions below threshold", len(results))
	}
	results, err = ix.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range results {
		total += r.Reclaimed
	}
	if total != 60 {
		t.Fatalf("threshold-0 compaction reclaimed %d rows, want 60", total)
	}
}

// TestCompactPartitionOutOfRange: bad partition indexes error cleanly.
func TestCompactPartitionOutOfRange(t *testing.T) {
	ix, _ := buildMutable(t, 64)
	if _, err := ix.CompactPartition(-1); err == nil {
		t.Error("negative partition accepted")
	}
	if _, err := ix.CompactPartition(99); err == nil {
		t.Error("out-of-range partition accepted")
	}
}

// TestDeleteAfterCompactionStillWorks: compaction rewrites partition
// rows; the Delete routing table must keep routing deletes of
// surviving ids.
func TestDeleteAfterCompactionStillWorks(t *testing.T) {
	ix, _ := buildMutable(t, 65)
	if err := ix.Delete(10); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Compact(0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(11); err != nil {
		t.Fatalf("delete of survivor after compaction: %v", err)
	}
	if err := ix.Delete(10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of reclaimed id returned %v, want ErrNotFound", err)
	}
}

// TestScannerCacheFollowsEpoch: the Fast Scan layout lives on the
// partition epoch, so a mutation that publishes a new epoch makes the
// old scanner unreachable and serves a scanner describing the new codes
// — a layout cached beside the epochs could go stale; this one cannot.
func TestScannerCacheFollowsEpoch(t *testing.T) {
	ix, gen := buildMutable(t, 66)
	a, err := ix.FastScanner(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.FastScanner(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("scanner not cached within one epoch")
	}

	// Route one vector into partition 0 by brute force: add vectors until
	// partition 0 grows.
	n0 := ix.Parts()[0].N
	for i := 0; i < 64 && ix.Parts()[0].N == n0; i++ {
		if _, err := ix.Add(vec.Matrix{Data: gen.Generate(1).Row(0), Dim: 32}); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Parts()[0].N == n0 {
		t.Skip("no generated vector routed to partition 0")
	}
	c, err := ix.FastScanner(0)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("scanner cache survived an epoch change: stale layout would be served")
	}
	// The new epoch's scanner shares a's layout and takes the appended
	// row with the keep phase: blocks and plain scan together hold every
	// vector of the partition.
	if got, want := c.Grouped().N+c.PlainScanned(), ix.Parts()[0].N; got != want || c.Grouped() != a.Grouped() {
		t.Fatalf("new scanner covers %d vectors (layout shared: %v), partition holds %d", got, c.Grouped() == a.Grouped(), want)
	}
}

// TestCompactedPersistRoundTrip: a compacted index persists without
// tombstones (v2) and — tombstones gone — downgrades to format v1
// again; both reload to bit-identical answers.
func TestCompactedPersistRoundTrip(t *testing.T) {
	ix, gen := buildMutable(t, 67)
	added, err := ix.Add(gen.Generate(400))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(added); i += 2 {
		if err := ix.Delete(added[i]); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 9000; id += 11 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Compact(0); err != nil {
		t.Fatal(err)
	}
	for _, st := range ix.PartitionStats() {
		if st.Dead != 0 {
			t.Fatalf("partition %d kept %d tombstones", st.Partition, st.Dead)
		}
	}
	if ix.NextID() != int64(9400) {
		t.Fatalf("compaction moved the id allocator to %d", ix.NextID())
	}
}

// TestDeleteRacesCompaction: deleters against a compaction loop on one
// partition, RAM and paged. Every compaction renumbers the rows the
// Delete routing table points at; a Delete reads its row again under
// the partition's builder lock, so it tombstones the id it was given
// and no other. Afterwards the table equals a fresh walk, every deleted
// id is absent from every kernel's answer, and every other id is still
// deletable exactly once, after which the table holds no range.
func TestDeleteRacesCompaction(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(map[bool]string{false: "ram", true: "paged"}[paged], func(t *testing.T) {
			gen := dataset.NewGenerator(dataset.Config{Seed: 66, Dim: 32})
			opt := DefaultOptions()
			opt.Partitions = 1
			opt.Seed = 66
			ix, err := Build(gen.Generate(1500), gen.Generate(2400), opt)
			if err != nil {
				t.Fatal(err)
			}
			if paged {
				if err := ix.AttachStore(t.TempDir(), 1<<30); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			q := gen.Generate(1).Row(0)
			if _, err := ix.Query(ctx, Request{Query: q, K: 10}); err != nil {
				t.Fatal(err) // builds the RAM layout, so Deletes tombstone lanes too
			}
			p := ix.Parts()[0]
			var doomed [2][]int64 // one list per deleter
			var spared []int64
			for i := 0; i < p.N; i++ {
				if i%4 < 2 {
					doomed[i%4] = append(doomed[i%4], p.ID(i))
				} else {
					spared = append(spared, p.ID(i))
				}
			}

			errs := make(chan error, len(doomed)+1)
			var deleters sync.WaitGroup
			for _, ids := range doomed {
				deleters.Add(1)
				go func() {
					defer deleters.Done()
					for _, id := range ids {
						if err := ix.Delete(id); err != nil {
							errs <- fmt.Errorf("delete %d: %w", id, err)
							return
						}
					}
				}()
			}
			stop, compactorDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(compactorDone)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := ix.CompactPartition(0); err != nil {
						errs <- err
						return
					}
				}
			}()
			deleters.Wait()
			close(stop)
			<-compactorDone
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			checkRouting(t, ix)
			checkLayouts(t, ix)

			for _, path := range scanPaths(t) {
				req := path.request(t)
				req.Query, req.K = q, p.N
				resp, err := ix.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[int64]bool, len(resp.Results))
				for _, r := range resp.Results {
					got[r.ID] = true
				}
				if len(got) != len(spared) {
					t.Fatalf("%v: %d ids answered, want the %d spared", path, len(got), len(spared))
				}
				for _, id := range spared {
					if !got[id] {
						t.Fatalf("%v: spared id %d missing", path, id)
					}
				}
			}
			for _, ids := range doomed {
				for _, id := range ids {
					if err := ix.Delete(id); !errors.Is(err, ErrNotFound) {
						t.Fatalf("second delete of %d: %v, want ErrNotFound", id, err)
					}
				}
			}
			for _, id := range spared {
				if err := ix.Delete(id); err != nil {
					t.Fatalf("delete of spared id %d: %v", id, err)
				}
				if err := ix.Delete(id); !errors.Is(err, ErrNotFound) {
					t.Fatalf("second delete of spared id %d: %v, want ErrNotFound", id, err)
				}
			}
			if live := ix.Live(); live != 0 {
				t.Fatalf("%d rows live after deleting every id", live)
			}
			checkRouting(t, ix)
			checkLayouts(t, ix)
		})
	}
}

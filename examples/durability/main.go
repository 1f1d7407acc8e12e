// Durability: make an index crash-safe with a write-ahead log
// (DESIGN.md §14). Every acknowledged Add/Delete is on stable storage
// before the call returns, so a crash — simulated here by abandoning
// the index without any save or checkpoint — loses nothing: Recover
// rebuilds the exact acknowledged state from the directory alone.
//
// The deployable equivalent is `pqserve -wal-dir /data/wal`: same log,
// same recovery, behind HTTP.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pqfastscan"
)

func main() {
	dir, err := os.MkdirTemp("", "pqfastscan-durable-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Build a small index and attach a write-ahead log. No mutation is
	// acknowledged until its record is fsynced (concurrent mutations
	// share flushes).
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 7})
	idx, err := pqfastscan.Build(gen.Generate(2000), gen.Generate(20000), pqfastscan.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.WithWAL(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("durable index in %s: %d vectors live\n", dir, idx.Live())

	// Mutate. Each of these is durable the moment it returns.
	extra := gen.Generate(3)
	ids, err := idx.AddBatch(extra)
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Delete(ids[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acked: added %v, deleted %d -> %d live\n", ids, ids[0], idx.Live())

	ws, _ := idx.WALStats()
	fmt.Printf("wal: epoch %d, %d records, %d bytes, %d fsyncs (p99 %.2fms)\n",
		ws.Epoch, ws.Records, ws.Bytes, ws.Fsyncs, ws.FsyncP99Ms)

	// Remember one query's answer, then "crash": drop the handle with
	// no save, no checkpoint, no clean shutdown.
	q := extra.Row(1)
	before, err := idx.Search(context.Background(), q, 5)
	if err != nil {
		log.Fatal(err)
	}
	liveBefore := idx.Live()
	idx = nil // the process could die here; the directory is the truth

	// Recover from the directory alone: load the snapshot (if any) and
	// replay the log over it, truncating any torn tail.
	recovered, err := pqfastscan.Recover(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.CloseWAL()
	fmt.Printf("recovered: %d live (was %d)\n", recovered.Live(), liveBefore)

	after, err := recovered.Search(context.Background(), q, 5)
	if err != nil {
		log.Fatal(err)
	}
	for i := range before.Results {
		if before.Results[i] != after.Results[i] {
			log.Fatalf("rank %d diverged: %+v vs %+v", i, before.Results[i], after.Results[i])
		}
	}
	fmt.Println("post-recovery search is bit-identical to pre-crash")

	// Checkpoint: snapshot the state, rotate the log, drop the old
	// segments — recovery time stays proportional to the log since the
	// last checkpoint, not to history.
	if err := recovered.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	ws, _ = recovered.WALStats()
	fmt.Printf("checkpointed: wal epoch now %d\n", ws.Epoch)
}

// Persistentindex: the offline-build / online-serve deployment mode. The
// paper's system assumes the database is preprocessed once ("very large
// databases can be stored entirely in memory" as pqcodes, §1-§2) and then
// serves queries; this example builds an index, saves it to disk, reloads
// it in a fresh state, verifies query-for-query identical answers, and
// serves a concurrent query batch from the reloaded index.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pqfastscan"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "pqfastscan-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "descriptors.pqfsidx")

	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 2029})
	learn := gen.Generate(4000)
	base := gen.Generate(60000)
	queries := gen.Generate(16)

	// Offline: build and persist.
	opt := pqfastscan.DefaultBuildOptions()
	start := time.Now()
	idx, err := pqfastscan.Build(learn, base, opt)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)
	if err := idx.Save(path); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built in %v, saved %d vectors to %s (%.2f MiB, %.1f bytes/vector)\n",
		buildTime.Round(time.Millisecond), base.Rows(), filepath.Base(path),
		float64(info.Size())/(1<<20), float64(info.Size())/float64(base.Rows()))

	// Online: reload and serve.
	start = time.Now()
	loaded, err := pqfastscan.LoadIndex(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded in %v (vs %v to rebuild)\n",
		time.Since(start).Round(time.Millisecond), buildTime.Round(time.Millisecond))

	// The reloaded index must answer identically.
	for qi := 0; qi < queries.Rows(); qi++ {
		a, err := idx.Search(ctx, queries.Row(qi), 10)
		if err != nil {
			log.Fatal(err)
		}
		b, err := loaded.Search(ctx, queries.Row(qi), 10)
		if err != nil {
			log.Fatal(err)
		}
		for i := range a.Results {
			if a.Results[i] != b.Results[i] {
				log.Fatalf("query %d: reloaded index answered differently", qi)
			}
		}
	}
	fmt.Println("reloaded index answers are identical to the original")

	// The reloaded index stays mutable: ingest online, delete, and save
	// again — the file format persists appended codes and tombstones.
	ids, err := loaded.AddBatch(gen.Generate(50))
	if err != nil {
		log.Fatal(err)
	}
	if err := loaded.Delete(ids[0]); err != nil {
		log.Fatal(err)
	}
	if err := loaded.Save(path); err != nil {
		log.Fatal(err)
	}
	again, err := pqfastscan.LoadIndex(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mutated online (+%d, -1) and re-persisted: %d live vectors after reload\n",
		len(ids), again.Live())

	// Concurrent batch serving (one goroutine per core, as the paper
	// deploys PQ Scan).
	start = time.Now()
	batch, err := loaded.SearchBatch(ctx, queries, 100)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("served %d queries in %v (%.2f ms/query)\n",
		len(batch), elapsed.Round(time.Microsecond),
		float64(elapsed.Microseconds())/float64(len(batch))/1e3)
}

// Command datagen generates synthetic SIFT-like datasets in the TEXMEX
// corpus formats (fvecs/bvecs/ivecs) used by ANN_SIFT1B, plus exact
// ground truth — the dataset substitution described in DESIGN.md §7.
//
// Usage:
//
//	datagen -out /tmp/synth -base 100000 -learn 10000 -query 100 -gt 100
//
// writes synth_base.fvecs, synth_learn.fvecs, synth_query.fvecs and
// synth_groundtruth.ivecs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")
	var (
		out      = flag.String("out", "synth", "output path prefix")
		baseN    = flag.Int("base", 100000, "number of base vectors")
		learnN   = flag.Int("learn", 10000, "number of learning vectors")
		queryN   = flag.Int("query", 100, "number of query vectors")
		gtK      = flag.Int("gt", 100, "ground-truth neighbors per query (0 disables)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		clusters = flag.Int("clusters", 64, "mixture components")
		bvecs    = flag.Bool("bvecs", false, "write byte vectors (.bvecs) instead of .fvecs")
	)
	flag.Parse()

	gen := dataset.NewGenerator(dataset.Config{Seed: *seed, Clusters: *clusters})
	learn := gen.Generate(*learnN)
	base := gen.Generate(*baseN)
	queries := gen.Generate(*queryN)

	write := func(name string, m vec.Matrix) {
		ext := ".fvecs"
		writer := dataset.WriteFvecs
		if *bvecs {
			ext = ".bvecs"
			writer = dataset.WriteBvecs
		}
		path := *out + "_" + name + ext
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil && filepath.Dir(path) != "." {
			log.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := writer(f, m); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d vectors, dim %d)\n", path, m.Rows(), m.Dim)
	}
	write("learn", learn)
	write("base", base)
	write("query", queries)

	if *gtK > 0 {
		gt, err := dataset.GroundTruth(base, queries, *gtK)
		if err != nil {
			log.Fatal(err)
		}
		path := *out + "_groundtruth.ivecs"
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := dataset.WriteIvecs(f, gt); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d queries x top-%d)\n", path, len(gt), *gtK)
	}
}

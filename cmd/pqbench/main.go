// Command pqbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pqbench -list
//	pqbench -exp fig16
//	pqbench -exp all -scale large
//
// Each experiment prints the rows or series of the corresponding table or
// figure of the paper's evaluation section (§5), measured on the
// instruction-counting model (internal/scan/model). It is one of three
// instruments (DESIGN.md §8): end-to-end and per-layer numbers of the
// library, the server and the router come from benchmark/
// (BENCHMARK.json), wall-clock kernel numbers per backend from
// `go test -bench ./internal/scan/...`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pqfastscan/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqbench: ")
	var (
		expName = flag.String("exp", "all", "experiment name(s), comma-separated (see -list), or \"all\"")
		scale   = flag.String("scale", "default", "environment scale: small, default or large")
		list    = flag.Bool("list", false, "list available experiments and exit")
		seed    = flag.Uint64("seed", 42, "dataset and training seed")
		baseN   = flag.Int("n", 0, "override base set size")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.SmallScale
	case "default":
		s = bench.DefaultScale
	case "large":
		s = bench.LargeScale
	default:
		log.Fatalf("unknown scale %q (want small, default or large)", *scale)
	}
	s.Seed = *seed
	if *baseN > 0 {
		s.BaseN = *baseN
	}

	var selected []bench.Experiment
	if *expName == "all" {
		selected = bench.Registry
	} else {
		for _, name := range strings.Split(*expName, ",") {
			e, ok := bench.Find(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown experiment %q; run with -list", name)
			}
			selected = append(selected, e)
		}
	}

	needEnv := false
	for _, e := range selected {
		needEnv = needEnv || e.NeedsEnv
	}
	var env *bench.Env
	if needEnv {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "building %s environment (base=%d, partitions=%d)...\n",
			s.Name, s.BaseN, s.Partitions)
		var err error
		env, err = bench.NewEnv(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "environment ready in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	for _, e := range selected {
		fmt.Printf("=== %s — %s ===\n", e.Name, e.Title)
		if err := e.Run(env, os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Println()
	}
}

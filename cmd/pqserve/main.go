// Command pqserve serves a pqfastscan index over HTTP — the concurrent
// query service of internal/server, as a deployable binary.
//
// Serve a persisted index:
//
//	pqserve -addr :8080 -index /data/sift.idx
//
// Serve only a subset of its IVF cells — one shard of a cluster behind
// cmd/pqrouter (DESIGN.md §13):
//
//	pqserve -addr :8081 -index /data/sift.idx -cells 0-3
//
// Or bring up a synthetic index for smoke tests and demos:
//
//	pqserve -addr 127.0.0.1:8080 -synthetic 100000
//
// Serve crash-safely: every acknowledged /add and /delete is write-ahead
// logged into -wal-dir before the 200, and a restart (even after kill -9)
// recovers exactly the acknowledged state — no -index needed once the
// directory exists:
//
//	pqserve -addr :8080 -synthetic 100000 -wal-dir /data/wal
//	pqserve -addr :8080 -wal-dir /data/wal   # restart: recovers from the log
//
// Endpoints (JSON over HTTP, see DESIGN.md §10 and §13):
//
//	POST /search        {"query":[...],"k":10,"nprobe":1,"kernel":"fastpq"}
//	                    or {"query":[...],"k":10,"cells":[0,2]} (router sub-requests);
//	                    kernel is naive, libpq or fastpq (the default);
//	                    ?recall=0.95 without nprobe or cells: probe the closest
//	                    cells until they hold fraction r of the live rows — a
//	                    coverage target, not a measured recall (DESIGN.md §16)
//	POST /add           {"vectors":[[...],...]}
//	POST /delete        {"id":123}               404 when the id is not live
//	POST /swap          {"path":"/data/new.idx"} hot snapshot swap
//	POST /swap/prepare  {"path":"..."}           stage a snapshot (two-phase swap)
//	POST /swap/commit                            publish the staged snapshot
//	POST /swap/abort                             discard the staged snapshot
//	POST /save          {"path":"..."}           persist the serving index
//	POST /compact       {"partition":-1}         reclaim tombstones online
//	GET  /healthz       liveness: 200 while the process runs, even warming
//	GET  /readyz        readiness: 503 while loading, preparing, draining
//	GET  /meta          index geometry + coarse centroids + shard cells
//	GET  /stats         request counts, p50/p99 latency, core-wait quantiles,
//	                    sheds, per-partition live/dead/epoch counters
//
// A /search is one Search on its handler goroutine: it scans at once when
// a core is free and waits its turn, first come first served, when every
// core is busy; load beyond -max-inflight is shed with 429 after
// -queue-timeout; -save-interval enables periodic background persistence
// to -snapshot; -compact-interval enables the background dead-ratio
// compaction policy (partitions past -compact-threshold are rebuilt
// online without their tombstones). With -warm the index loads in the background while the
// listener is already up: /healthz answers immediately and /readyz flips
// to 200 when the load completes, so orchestrators can route around a
// shard streaming a large snapshot in. SIGTERM triggers a graceful
// shutdown: /readyz goes 503, the listener stops accepting, every
// in-flight and queued request is served, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pqfastscan"
	"pqfastscan/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("pqserve: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		indexPath    = flag.String("index", "", "persisted index to serve (pqfastscan Save format)")
		synthetic    = flag.Int("synthetic", 0, "build a synthetic index of this many vectors instead of loading one")
		partitions   = flag.Int("partitions", 8, "IVF partitions for -synthetic builds")
		seed         = flag.Uint64("seed", 42, "seed for -synthetic builds")
		cellsFlag    = flag.String("cells", "", "IVF cells this shard serves, e.g. \"0-3\" or \"0,2,5-7\" (default: all)")
		warm         = flag.Bool("warm", false, "start serving probes immediately and load the index in the background")
		maxInFlight  = flag.Int("max-inflight", 0, "admission-control bound on concurrent searches (0 = 8×GOMAXPROCS)")
		queueTimeout = flag.Duration("queue-timeout", 50*time.Millisecond, "longest a search waits for admission before a 429")
		maxK         = flag.Int("max-k", 1000, "largest accepted k")
		snapshot     = flag.String("snapshot", "", "path for /save and periodic background saves (default: -index path)")
		saveEvery    = flag.Duration("save-interval", 0, "periodic background save interval (0 disables)")
		compactEvery = flag.Duration("compact-interval", time.Minute, "background compaction policy interval (0 disables); compaction drops deleted rows, which otherwise cost scan time and memory until rebuilt")
		compactAt    = flag.Float64("compact-threshold", 0.25, "dead ratio at which the policy compacts a partition")
		walDir       = flag.String("wal-dir", "", "crash-safe durability directory: mutations are write-ahead logged here before the 200, and startup recovers from it (existing durable state wins over -index/-synthetic)")
		storeDir     = flag.String("store-dir", "", "beyond-RAM serving: seal partition data into disk extents under this directory and page them through a bounded buffer pool (extents are a rebuildable cache owned by this process, not durable state)")
		poolBytes    = flag.Int64("pool-bytes", 0, "buffer pool capacity in bytes for -store-dir (0 = 256 MiB default)")
	)
	flag.Parse()

	cells, err := parseCells(*cellsFlag)
	if err != nil {
		log.Fatal(err)
	}
	snapPath := *snapshot
	if snapPath == "" {
		snapPath = *indexPath
	}

	cfg := server.Config{
		Cells:            cells,
		MaxInFlight:      *maxInFlight,
		QueueTimeout:     *queueTimeout,
		MaxK:             *maxK,
		SnapshotPath:     snapPath,
		SaveInterval:     *saveEvery,
		CompactInterval:  *compactEvery,
		CompactThreshold: *compactAt,
		WALDir:           *walDir,
		StoreDir:         *storeDir,
		PoolBytes:        *poolBytes,
		Logf:             log.Printf,
	}
	load := func() (*pqfastscan.Index, error) {
		return openIndex(*indexPath, *synthetic, *partitions, *seed, cells)
	}
	switch {
	case *walDir != "" && pqfastscan.HasDurable(*walDir):
		// The directory already holds acknowledged state; it wins over
		// -index/-synthetic, so don't load (or require) either.
		log.Printf("recovering durable state from %s", *walDir)
	case *warm || *walDir != "":
		// A durable first boot defers the load too: the server answers
		// probes while the index is built and the WAL initialized.
		cfg.Load = load
	default:
		idx, err := load()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Index = idx
	}

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	hs := server.NewHTTPServer(*addr, srv.Handler())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down: draining in-flight requests")
		// The graceful order: flip /readyz so routers stop sending new
		// work, stop accepting and drain the handlers (each returns
		// once its search is answered), then stop the background
		// loops.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = srv.Close()
		log.Printf("shutdown complete")
	}()

	// Name the scan backend at startup so a deployment log makes a
	// silent SWAR fallback (wrong image, masked CPU features) visible;
	// /healthz and /stats carry the same value for probes.
	log.Printf("scan backend %s (cpu features %v, available %v)",
		pqfastscan.ActiveBackend(), pqfastscan.CPUFeatures(), pqfastscan.AvailableBackends())
	if note := pqfastscan.BackendInitNote(); note != "" {
		log.Printf("backend selection: %s", note)
	}
	if idx := srv.Index(); idx != nil {
		log.Printf("serving %d live vectors (partitions %v) on %s",
			idx.Live(), idx.PartitionSizes(), *addr)
	} else {
		log.Printf("listening on %s, index loading in background", *addr)
	}
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// parseCells parses the -cells flag: a comma-separated list of cell ids
// and inclusive ranges ("0-3,5,7-8"). Empty means all cells (nil).
func parseCells(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	seen := make(map[int]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, ranged := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return nil, fmt.Errorf("-cells %q: bad cell %q", s, part)
		}
		b := a
		if ranged {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
				return nil, fmt.Errorf("-cells %q: bad range %q", s, part)
			}
		}
		if a < 0 || b < a {
			return nil, fmt.Errorf("-cells %q: range %q is empty or negative", s, part)
		}
		for c := a; c <= b; c++ {
			if seen[c] {
				return nil, fmt.Errorf("-cells %q: cell %d listed twice", s, c)
			}
			seen[c] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// openIndex loads the persisted index (restricted to the shard's cells
// when given), or builds a synthetic one for demo and smoke-test runs.
func openIndex(path string, synthetic, partitions int, seed uint64, cells []int) (*pqfastscan.Index, error) {
	switch {
	case path != "":
		start := time.Now()
		idx, err := pqfastscan.LoadIndexCells(path, cells)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded %s in %v", path, time.Since(start).Round(time.Millisecond))
		return idx, nil
	case synthetic > 0:
		start := time.Now()
		gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: seed})
		learnN := synthetic / 10
		if learnN < 1000 {
			learnN = 1000
		}
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = partitions
		opt.Seed = seed
		idx, err := pqfastscan.Build(gen.Generate(learnN), gen.Generate(synthetic), opt)
		if err != nil {
			return nil, err
		}
		if cells != nil {
			if idx, err = idx.RestrictCells(cells...); err != nil {
				return nil, err
			}
		}
		log.Printf("built synthetic index (%d vectors) in %v", synthetic, time.Since(start).Round(time.Millisecond))
		return idx, nil
	default:
		return nil, errors.New("one of -index or -synthetic is required")
	}
}

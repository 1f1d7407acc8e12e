// Command pqrouter fronts a fleet of pqserve shards with scatter-gather
// query serving (internal/cluster, DESIGN.md §13). Each -shard flag
// assigns an inclusive IVF cell range to one shard's endpoints — the
// primary first, read replicas after it:
//
//	pqrouter -addr :8080 \
//	    -shard 0-3=http://10.0.0.1:8081,http://10.0.0.3:8081 \
//	    -shard 4-7=http://10.0.0.2:8081
//
// At startup the router fetches every shard's /meta, verifies the fleet
// serves one snapshot (bit-identical coarse centroids) and that the
// ranges tile the cell space, then answers the same API a single
// pqserve exposes — clients cannot tell a router from a node, and
// results are bit-identical to a single node holding all cells:
//
//	POST /search   {"query":[...],"k":10,"nprobe":2,"kernel":"fastpq"}
//	               ?recall=0.95 without nprobe or cells: probe the closest
//	               cells until they hold fraction r of the live rows (the
//	               fleet's cell sizes) — a coverage target, not a measured
//	               recall
//	POST /swap     {"path":"/data/new.idx"}  fleet-wide two-phase swap
//	GET  /healthz  liveness
//	GET  /readyz   readiness (503 while draining)
//	GET  /stats    fanout latency, per-shard failovers and hedges
//
// A shard sub-request that fails is retried on the shard's replicas
// under a bounded budget (-max-attempts, exponential backoff with full
// jitter between repeat rounds); a primary that is merely slow is
// hedged after -hedge-delay. With -allow-partial (or per-request
// ?partial=1) a query outliving every retry degrades instead of
// failing: the surviving shards' results are merged and the response
// carries a coverage field. /swap
// prepares the snapshot on every endpoint before committing it
// anywhere, so a fleet swap under traffic serves zero failed requests
// and the fleet never mixes epochs for longer than one commit round.
// SIGTERM drains gracefully: /readyz goes 503, in-flight fanouts
// finish, then the process exits 0.
//
// Self-healing (DESIGN.md §17). Every endpoint has a circuit breaker:
// -breaker-threshold consecutive failures trip it open, attempts fail
// fast for -breaker-cooldown, then a single half-open probe decides
// recovery. With -probe-interval set, a background prober walks every
// endpoint's /readyz, quarantines endpoints failing -quarantine-after
// consecutive probes out of the candidate set, and reinstates them
// after -reinstate-after healthy ones — so failover and hedging pick
// among live replicas instead of rediscovering deadness per request.
// Per-attempt timeouts adapt to each endpoint's latency EWMA once it
// has warmed up, capped by -shard-timeout. Clients may bound a query
// end-to-end with an X-Pq-Deadline-Ms header (relative milliseconds):
// the remaining budget is forwarded on every sub-request and expired
// work is rejected 504 before any scanning. Mutations (/add, /delete)
// are forwarded to shard primaries and never re-sent after an
// ambiguous failure — the reply is a 502 with "outcome": "unknown".
// A fleet of more than one shard refuses /add with 501 (a bad body is
// still a 400): every shard allocates ids on its own, so two shards
// would issue the same ids. A 1-shard fleet takes it.
// Breaker states, quarantine events, retry and deadline-reject
// counters all surface on /stats.
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
	"syscall"
	"time"

	"pqfastscan/internal/cluster"
	"pqfastscan/internal/server"
)

// shardFlags collects repeated -shard specs.
type shardFlags []cluster.ShardSpec

func (s *shardFlags) String() string { return fmt.Sprint(*s) }

func (s *shardFlags) Set(v string) error {
	spec, err := cluster.ParseShardSpec(v)
	if err != nil {
		return err
	}
	*s = append(*s, spec)
	return nil
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("pqrouter: ")
	var shards shardFlags
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		shardTimeout = flag.Duration("shard-timeout", 10*time.Second, "budget for one shard sub-request including failover and retries")
		hedgeDelay   = flag.Duration("hedge-delay", 50*time.Millisecond, "wait before hedging a slow primary to a replica (negative disables)")
		maxAttempts  = flag.Int("max-attempts", 0, "attempt cap per shard per query, cycling its endpoints with jittered backoff (0 = endpoints+2)")
		allowPartial = flag.Bool("allow-partial", false, "degrade instead of failing when shards are down: merge surviving shards and report coverage (per-request opt-in stays available via ?partial=1)")
		maxK         = flag.Int("max-k", 1000, "largest accepted k")

		breakerThreshold = flag.Int("breaker-threshold", 5, "consecutive failures that trip an endpoint's circuit breaker open (negative disables breakers)")
		breakerCooldown  = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker fails fast before half-open admits a probe request")
		probeInterval    = flag.Duration("probe-interval", time.Second, "background /readyz probe cadence for health-driven quarantine (0 disables)")
		probeTimeout     = flag.Duration("probe-timeout", 500*time.Millisecond, "budget for one health probe")
		quarantineAfter  = flag.Int("quarantine-after", 3, "consecutive failed probes that quarantine an endpoint out of the candidate set")
		reinstateAfter   = flag.Int("reinstate-after", 2, "consecutive healthy probes that reinstate a quarantined endpoint")
	)
	flag.Var(&shards, "shard", "cell range and endpoints, \"LO-HI=URL[,URL...]\" (primary first; repeatable)")
	flag.Parse()

	if len(shards) == 0 {
		log.Fatal("at least one -shard is required")
	}
	router, err := cluster.New(cluster.Config{
		Shards:           shards,
		ShardTimeout:     *shardTimeout,
		HedgeDelay:       *hedgeDelay,
		MaxAttempts:      *maxAttempts,
		AllowPartial:     *allowPartial,
		MaxK:             *maxK,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		QuarantineAfter:  *quarantineAfter,
		ReinstateAfter:   *reinstateAfter,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	hs := server.NewHTTPServer(*addr, router.Handler())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down: draining in-flight fanouts")
		router.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		log.Printf("shutdown complete")
	}()

	for si, spec := range shards {
		log.Printf("shard %d: cells %d-%d on %v", si, spec.Lo, spec.Hi, spec.Endpoints)
	}
	log.Printf("routing %d cells over %d shards on %s", router.Partitions(), len(shards), *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

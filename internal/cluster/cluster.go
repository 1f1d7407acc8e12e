// Package cluster is the scatter-gather serving layer over a fleet of
// pqserve shards (DESIGN.md §13). A Router owns a shard map keyed by
// IVF coarse-cell ranges: because the paper's index is already
// partitioned by the coarse quantizer (Algorithm 1 step 1 routes a
// query to cells before any scanning), the natural shard key is the
// cell id — a shard is simply a pqserve process that loaded a subset of
// the cells from the same snapshot file.
//
// The bit-identical guarantee. For every query the router runs the same
// cell ranking the engine runs (index.RankCells over the coarse
// centroids fetched from /meta, ties broken by cell id), takes the top
// nprobe cells, and sends each shard exactly its share of that probe
// set as an explicit cell list. Each shard scans those cells against
// the same snapshot data a single node would hold, and the router's
// merge (topk.MergeResults) retains the k smallest (distance, id) pairs
// of the deduplicated union — which is precisely the retained set of a
// single node's bounded heap over the union of the same cells. Results,
// distances and probe order are therefore identical to a single-node
// query, regardless of shard count, shard order, or replica failover.
//
// Availability. Each shard may list replica endpoints after its
// primary. A sub-request that errors fails over to the next replica,
// and a primary that is merely slow is hedged: after HedgeDelay the
// router also asks a replica and takes whichever answers first.
// Duplicate ids from a hedge race are collapsed by the merge. Once the
// endpoint list is exhausted the router keeps trying under a bounded
// retry budget — exponential backoff with full jitter, capped by
// MaxAttempts and the per-query ShardTimeout, never after the caller's
// context is done. When even that fails, a query that opted in
// (?partial=1, or a router running -allow-partial) degrades instead of
// erroring: the surviving shards' results are merged and the response
// carries a coverage field naming how many probe cells answered.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pqfastscan/internal/hist"
	"pqfastscan/internal/index"
	"pqfastscan/internal/server"
	"pqfastscan/internal/vec"
)

// ShardSpec assigns an inclusive range of IVF cells to an ordered list
// of endpoints: the primary first, read replicas after it.
type ShardSpec struct {
	Lo, Hi    int
	Endpoints []string
}

// String renders the spec in the form ParseShardSpec accepts.
func (s ShardSpec) String() string {
	return fmt.Sprintf("%d-%d=%s", s.Lo, s.Hi, strings.Join(s.Endpoints, ","))
}

// ParseShardSpec parses "LO-HI=URL[,URL...]" (or "CELL=URL" for a
// single-cell shard): the cell range this shard serves and its
// endpoints, primary first.
func ParseShardSpec(spec string) (ShardSpec, error) {
	cells, urls, ok := strings.Cut(spec, "=")
	if !ok {
		return ShardSpec{}, fmt.Errorf("cluster: shard spec %q: want CELLS=URL[,URL...]", spec)
	}
	var out ShardSpec
	lo, hi, ranged := strings.Cut(cells, "-")
	var err error
	if out.Lo, err = strconv.Atoi(strings.TrimSpace(lo)); err != nil {
		return ShardSpec{}, fmt.Errorf("cluster: shard spec %q: bad cell range: %v", spec, err)
	}
	out.Hi = out.Lo
	if ranged {
		if out.Hi, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
			return ShardSpec{}, fmt.Errorf("cluster: shard spec %q: bad cell range: %v", spec, err)
		}
	}
	if out.Lo < 0 || out.Hi < out.Lo {
		return ShardSpec{}, fmt.Errorf("cluster: shard spec %q: cell range %d-%d is empty or negative", spec, out.Lo, out.Hi)
	}
	for _, u := range strings.Split(urls, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		out.Endpoints = append(out.Endpoints, u)
	}
	if len(out.Endpoints) == 0 {
		return ShardSpec{}, fmt.Errorf("cluster: shard spec %q: no endpoints", spec)
	}
	return out, nil
}

// Cells expands the spec's range into the explicit cell list.
func (s ShardSpec) Cells() []int {
	out := make([]int, 0, s.Hi-s.Lo+1)
	for c := s.Lo; c <= s.Hi; c++ {
		out = append(out, c)
	}
	return out
}

// Config configures a Router. Shards is required; zero-valued tuning
// fields select defaults.
type Config struct {
	// Shards is the cluster map. The ranges must tile [0, partitions)
	// exactly — every cell served by exactly one shard — which New
	// verifies against the fleet's /meta.
	Shards []ShardSpec

	// ShardTimeout bounds one whole shard sub-request including every
	// failover and retry attempt (default 10s).
	ShardTimeout time.Duration
	// HedgeDelay is how long the router waits on a shard's primary
	// before also asking a replica (default 50ms; negative disables
	// hedging, leaving failover on error only).
	HedgeDelay time.Duration
	// MaxAttempts caps sub-request attempts per shard per query. The
	// first pass cycles the endpoint list with immediate failover; any
	// budget beyond that re-tries endpoints under exponential backoff
	// with full jitter (retryDelay). Default: the shard's endpoint count
	// plus two retries, so a transient blip on every replica does not
	// fail the query outright.
	MaxAttempts int
	// AllowPartial makes every query tolerate shard failures by default,
	// as if it carried ?partial=1: surviving shards' results are merged
	// and the response reports coverage. Off, queries fail unless the
	// request itself opts in.
	AllowPartial bool
	// MaxK rejects /search bodies asking for more neighbors than this
	// (default 1000), as a node's does.
	MaxK int
	// MaxBodyBytes caps a request body (default 8 MiB).
	MaxBodyBytes int64

	// BreakerThreshold is how many consecutive failures trip an
	// endpoint's circuit breaker open (default 5; negative disables
	// breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-open admits a single probe request (default 1s).
	BreakerCooldown time.Duration

	// ProbeInterval enables the background health prober: every
	// interval each distinct endpoint's /readyz is checked, failing
	// endpoints are quarantined out of the candidate set, and
	// recovered ones reinstated. Zero disables probing (library and
	// test default); cmd/pqrouter passes -probe-interval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz check (default 500ms).
	ProbeTimeout time.Duration
	// QuarantineAfter is the consecutive probe failures that
	// quarantine an endpoint (default 3).
	QuarantineAfter int
	// ReinstateAfter is the consecutive probe successes that reinstate
	// a quarantined endpoint (default 2).
	ReinstateAfter int

	// Client overrides the HTTP client (tests inject httptest
	// transports). Defaults to a pooled transport sized for fanout.
	Client *http.Client

	// Logf, when set, receives operational log lines. Defaults to
	// discarding them.
	Logf func(format string, args ...any)

	// sleep and jitter are test seams: sleep waits d or until ctx is
	// done (reporting which), jitter draws a uniform int in [0, n).
	// Tests inject deterministic versions; production gets a timer and
	// math/rand.
	sleep  func(ctx context.Context, d time.Duration) bool
	jitter func(n int64) int64
	// settled, when set, is called with the endpoint of every search
	// attempt once its breaker verdict is in — for a hedge's loser, after
	// the query that cancelled it has returned. A test seam too.
	settled func(ep string)
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 50 * time.Millisecond
	}
	if c.sleep == nil {
		c.sleep = func(ctx context.Context, d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return true
			case <-ctx.Done():
				return false
			}
		}
	}
	if c.jitter == nil {
		c.jitter = rand.Int63n
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.ReinstateAfter <= 0 {
		c.ReinstateAfter = 2
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Transport: &http.Transport{
				// Fanout sends one request per shard per query; idle
				// pooling per endpoint is what keeps that from paying a
				// TCP handshake per sub-request.
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// fleetMeta is the view of the fleet agreed on at startup (or after a
// fleet swap): everything the router needs to rank cells exactly as the
// engine does and to send each cell to its shard. It is published
// whole, so a query reads one view however a swap interleaves.
type fleetMeta struct {
	dim        int
	partitions int
	pqm        int
	coarse     vec.Matrix
	byCell     []int // cell id -> index into Router.shards
	// cellSizes is the live row count per cell, each taken from the
	// shard that owns the cell — the mass signal behind ?recall=
	// planning. All zeros when the fleet predates /meta cell sizes,
	// which degrades recall targets to the single-probe default.
	cellSizes []int
}

// shard is one entry of the shard map plus its runtime counters.
type shard struct {
	spec  ShardSpec
	cells []int

	requests  hist.Hist    // sub-request latency, successful tries
	failovers atomic.Int64 // tries that moved on to the next endpoint
	hedges    atomic.Int64 // replica requests launched by the hedge timer
	retries   atomic.Int64 // backoff-delayed repeat attempts
}

// Router fans queries out over the shard map and merges their answers.
// Create with New, mount Handler behind an http.Server (cmd/pqrouter),
// or call Search directly.
type Router struct {
	cfg    Config
	shards []*shard
	// endpoints holds per-endpoint health state (breaker, latency
	// EWMA, quarantine), shared across shards listing the same URL.
	// The map is built once in New and never mutated after — reads
	// are lock-free.
	endpoints map[string]*endpointState
	// meta is the published fleet view: every query loads it once,
	// lock-free; a fleet swap replaces it whole.
	meta     atomic.Pointer[fleetMeta]
	metrics  *routerMetrics
	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	proberWG sync.WaitGroup
}

// New validates the shard map against the live fleet and returns a
// ready Router. It requires every shard's /meta to agree on geometry
// (dim, partitions, PQ m, and bit-identical coarse centroids — without
// that, ranking is undefined) and the shard ranges to tile the cell
// space exactly.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:       cfg,
		metrics:   newRouterMetrics(),
		endpoints: make(map[string]*endpointState),
		stop:      make(chan struct{}),
	}
	for _, spec := range cfg.Shards {
		r.shards = append(r.shards, &shard{spec: spec, cells: spec.Cells()})
		for _, ep := range spec.Endpoints {
			if _, ok := r.endpoints[ep]; !ok {
				r.endpoints[ep] = &endpointState{
					url:     ep,
					breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
				}
			}
		}
	}
	if err := r.refreshMeta(); err != nil {
		return nil, err
	}
	if cfg.ProbeInterval > 0 {
		r.proberWG.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the background health prober (a no-op when probing is
// disabled). The router remains usable for queries after Close.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.proberWG.Wait()
}

// refreshMeta fetches /meta from every shard, checks the fleet agrees,
// rebuilds the cell->shard table and publishes it with the geometry, as
// one view. Called at startup and again after a fleet swap (a new
// snapshot may carry new centroids even when it is swap-compatible).
func (r *Router) refreshMeta() error {
	var ref *server.MetaResponse
	metas := make([]*server.MetaResponse, len(r.shards))
	for si, sh := range r.shards {
		meta, ep, err := r.fetchMeta(sh)
		if err != nil {
			return fmt.Errorf("cluster: shard %d (%s): %w", si, sh.spec.String(), err)
		}
		metas[si] = meta
		if sh.spec.Hi >= meta.Partitions {
			return fmt.Errorf("cluster: shard %d range %d-%d exceeds %d partitions",
				si, sh.spec.Lo, sh.spec.Hi, meta.Partitions)
		}
		if meta.Cells != nil {
			held := make(map[int]bool, len(meta.Cells))
			for _, c := range meta.Cells {
				held[c] = true
			}
			for _, c := range sh.cells {
				if !held[c] {
					return fmt.Errorf("cluster: shard %d (%s) is assigned cell %d but does not serve it (serves %v)",
						si, ep, c, meta.Cells)
				}
			}
		}
		if ref == nil {
			ref = meta
			continue
		}
		if err := sameGeometry(ref, meta); err != nil {
			return fmt.Errorf("cluster: shard %d (%s) disagrees with shard 0: %w", si, ep, err)
		}
	}

	byCell := make([]int, ref.Partitions)
	for i := range byCell {
		byCell[i] = -1
	}
	for si, sh := range r.shards {
		for _, c := range sh.cells {
			if byCell[c] != -1 {
				return fmt.Errorf("cluster: cell %d assigned to shards %d and %d", c, byCell[c], si)
			}
			byCell[c] = si
		}
	}
	for c, si := range byCell {
		if si == -1 {
			return fmt.Errorf("cluster: cell %d not assigned to any shard", c)
		}
	}

	coarse := vec.NewMatrix(ref.Partitions, ref.Dim)
	for i, row := range ref.Centroids {
		copy(coarse.Row(i), row)
	}
	// Each cell's size comes from the shard that owns it: a shard reports
	// 0 for cells it does not hold, so only the owner's number is real.
	cellSizes := make([]int, ref.Partitions)
	for c, si := range byCell {
		if m := metas[si]; len(m.CellSizes) == ref.Partitions {
			cellSizes[c] = m.CellSizes[c]
		}
	}
	r.meta.Store(&fleetMeta{dim: ref.Dim, partitions: ref.Partitions, pqm: ref.PQM, coarse: coarse, byCell: byCell, cellSizes: cellSizes})
	return nil
}

// fetchMeta asks a shard's endpoints for /meta, in order, returning the
// first answer and the endpoint that gave it.
func (r *Router) fetchMeta(sh *shard) (*server.MetaResponse, string, error) {
	var lastErr error
	for _, ep := range sh.spec.Endpoints {
		var meta server.MetaResponse
		if err := r.getJSON(ep+"/meta", &meta); err != nil {
			lastErr = err
			continue
		}
		if len(meta.Centroids) != meta.Partitions {
			return nil, ep, fmt.Errorf("meta from %s: %d centroids for %d partitions", ep, len(meta.Centroids), meta.Partitions)
		}
		return &meta, ep, nil
	}
	return nil, "", fmt.Errorf("no endpoint answered /meta: %w", lastErr)
}

// sameGeometry verifies two /meta documents describe interchangeable
// engines: identical shape and bit-identical centroids. Float equality
// is intentional — the centroids came from the same snapshot file, so
// anything but exact agreement means the shards loaded different
// snapshots, and ranking (hence results) would silently diverge.
func sameGeometry(a, b *server.MetaResponse) error {
	if a.Dim != b.Dim || a.Partitions != b.Partitions || a.PQM != b.PQM {
		return fmt.Errorf("geometry mismatch: dim %d/%d, partitions %d/%d, pq_m %d/%d",
			a.Dim, b.Dim, a.Partitions, b.Partitions, a.PQM, b.PQM)
	}
	for i := range a.Centroids {
		if len(a.Centroids[i]) != len(b.Centroids[i]) {
			return fmt.Errorf("centroid %d length mismatch", i)
		}
		for j := range a.Centroids[i] {
			if a.Centroids[i][j] != b.Centroids[i][j] {
				return fmt.Errorf("centroid %d component %d differs: shards serve different snapshots", i, j)
			}
		}
	}
	return nil
}

// Partitions returns the fleet's cell count.
func (r *Router) Partitions() int { return r.meta.Load().partitions }

// Dim returns the fleet's vector dimensionality.
func (r *Router) Dim() int { return r.meta.Load().dim }

// probeSet returns the cells to scan for a query, in the engine's
// deterministic rank order, and groups them by owning shard preserving
// that order: byShard[si] is shard si's share, nil when it has none.
// Explicit cells skip ranking, exactly as on a single node. It reads
// the fleet only through meta — the view Search loaded and validated
// against — and reuses ranked, the RankCells order over meta.coarse,
// when the caller already computed it (nil: rank here).
func (r *Router) probeSet(meta *fleetMeta, query []float32, ranked []int, nprobe int, cells []int) (probe []int, byShard [][]int) {
	if len(cells) > 0 {
		probe = cells
	} else {
		if ranked == nil {
			ranked = index.RankCells(query, meta.coarse)
		}
		probe = ranked[:nprobe]
	}
	byShard = make([][]int, len(r.shards))
	for _, c := range probe {
		si := meta.byCell[c]
		byShard[si] = append(byShard[si], c)
	}
	return probe, byShard
}

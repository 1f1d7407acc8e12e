// Package server is the network-facing query service over a pqfastscan
// index: an HTTP/JSON API in which a /search is one Search call on its
// handler goroutine. Three mechanisms make it hold up under load
// (DESIGN.md §10):
//
//   - one query per core — a /search that finds a core free scans at
//     once; one that finds every core busy waits its turn, first come
//     first served, so no more queries scan than there are cores;
//   - admission control — a bounded in-flight limit with queue-timeout
//     rejection (429), so overload degrades by shedding requests while
//     the accepted ones keep bounded latency;
//   - hot snapshot swap — /swap loads a persisted index from disk and
//     atomically replaces the serving snapshot under live traffic
//     (in-flight queries drain on the old one), and a background loop
//     periodically persists the mutable serving index.
//
// Per-endpoint request counts, latency quantiles, core-wait quantiles
// and shed counts are exported on /stats (metrics.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pqfastscan"
)

// Config configures a Server. The zero value of every tuning field
// selects a sensible default; exactly one of Index and Load is
// required.
type Config struct {
	// Index is the serving snapshot holder. The server retains this
	// exact handle and re-points it on /swap, so the caller can share it
	// (e.g. for out-of-band mutation).
	Index *pqfastscan.Index

	// Load, when set instead of Index, defers the index load: New
	// returns immediately with the server in warming state (/readyz
	// 503, data endpoints 503, /healthz alive) and runs Load on a
	// background goroutine; the server becomes ready when it returns.
	// This is what lets a shard expose liveness and readiness probes
	// while a large index file is still streaming in, so a cluster
	// router (or a k8s-style deployment) routes around the warming
	// process instead of timing out on it.
	Load func() (*pqfastscan.Index, error)

	// Cells, when non-nil, declares the IVF cells this server is
	// responsible for — the shard assignment of cluster serving. It is
	// reported on /meta and applied to every snapshot load the server
	// performs itself (/swap and /swap/prepare load only these cells
	// via LoadIndexCells). It does not restrict queries: cell numbering
	// is global, and a scan of a cell the shard does not hold simply
	// finds an empty partition.
	Cells []int

	// Deprecated: ignored — there is no batching; kept until the
	// benchmark's twin handler is retired (ROADMAP item 1f).
	BatchWindow time.Duration

	// MaxInFlight bounds concurrently admitted /search requests
	// (default 8×GOMAXPROCS). Requests beyond it wait up to QueueTimeout
	// for a slot and are then rejected with 429.
	MaxInFlight int
	// QueueTimeout is the longest a request waits for admission
	// (default 50ms).
	QueueTimeout time.Duration

	// MaxK rejects requests asking for more neighbors than this
	// (default 1000).
	MaxK int
	// MaxBodyBytes caps a request body (default 8 MiB — room for a
	// few-thousand-vector /add batch). Oversized bodies fail decoding
	// with 400 instead of buffering unboundedly.
	MaxBodyBytes int64

	// SnapshotPath, when set, is where /save and the periodic saver
	// persist the serving index.
	SnapshotPath string
	// SaveInterval enables periodic background Save when positive. With
	// WALDir set, the periodic save is a checkpoint: it persists the
	// durable snapshot and truncates the write-ahead log.
	SaveInterval time.Duration

	// WALDir, when set, makes the serving index crash-safe: every
	// acknowledged /add and /delete is write-ahead logged into this
	// directory before the 200 is sent, and startup recovers the exact
	// acknowledged state from the snapshot + log found there (the server
	// reports "recovering" on /readyz until replay completes). When the
	// directory holds durable state, it takes precedence over Index/Load
	// as the boot source — the recovered state is, by construction, the
	// newest acknowledged one.
	WALDir string

	// StoreDir, when set, serves the index beyond RAM: partition data is
	// sealed into disk-resident extents under this directory and paged
	// through a buffer pool bounded at PoolBytes, so the resident set is
	// the pool plus index metadata instead of the full index. Applied to
	// every index this server installs — the boot index and every /swap
	// or /swap/prepare load (staged and serving indexes share the pool).
	// The directory is owned by this process; extents are a rebuildable
	// cache, not durable state.
	StoreDir string
	// PoolBytes bounds the buffer pool when StoreDir is set (default
	// pqfastscan.DefaultPoolBytes).
	PoolBytes int64

	// CompactInterval enables the background compaction policy when
	// positive: every interval, partitions whose dead ratio reaches
	// CompactThreshold are rebuilt online without their tombstones.
	CompactInterval time.Duration
	// CompactThreshold is the dead ratio (tombstoned rows / total rows)
	// at which the background policy compacts a partition (default
	// 0.25). The explicit /compact endpoint takes its own threshold.
	CompactThreshold float64

	// Logf, when set, receives operational log lines (swaps, saves,
	// shutdown). Defaults to discarding them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8 * runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 50 * time.Millisecond
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.CompactThreshold <= 0 {
		c.CompactThreshold = 0.25
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// endpoints instrumented in /stats, in display order.
var endpointNames = []string{
	"/search", "/add", "/delete", "/healthz", "/readyz", "/meta", "/stats",
	"/swap", "/swap/prepare", "/swap/commit", "/swap/abort", "/save", "/compact",
}

// Server serves a pqfastscan index over HTTP. Create with New, mount
// Handler on an http.Server, and Close when done.
type Server struct {
	cfg     Config
	metrics *metrics
	mux     *http.ServeMux

	// idx is nil until the (possibly deferred) index load installs it;
	// every data endpoint calls requireIndex first, so the nil window is
	// only observable as 503 warming responses.
	idx atomic.Pointer[pqfastscan.Index]

	// warming is true from New until the index is installed; loadErr
	// carries a failed deferred load's message for /readyz.
	warming atomic.Bool
	loadErr atomic.Pointer[string]
	// recovering is true while startup WAL replay runs — a sub-state of
	// warming that /readyz names explicitly, since recovery time scales
	// with log length rather than index size.
	recovering atomic.Bool
	// draining is set by Close (and BeginDrain) so readiness probes and
	// routers steer new traffic away while in-flight work finishes.
	draining atomic.Bool

	// Two-phase snapshot swap state (DESIGN.md §13): /swap/prepare
	// stages a loaded-and-validated index without serving it,
	// /swap/commit publishes it atomically, /swap/abort discards it.
	// preparing counts in-flight prepare loads for /readyz.
	stagedMu   sync.Mutex
	staged     *pqfastscan.Index
	stagedPath string
	preparing  atomic.Int32

	sem chan struct{} // admission tokens; len(sem) = in-flight
	// cores is how many searches may scan at once: one per core, because
	// a scan is CPU-bound and a query more than that only takes time from
	// the ones already running. Derived, not configured. An admitted
	// request holds its token while it waits here; Go serves a channel's
	// blocked senders first come first served.
	cores chan struct{}
	// onScan is a test hook, nil outside tests: it runs on the handler
	// that holds a core, before its Search, so a test can keep the core
	// busy.
	onScan func()

	// swapMu orders snapshot replacement against everything that writes
	// the serving index: /swap and /save hold it exclusively, /add and
	// /delete share it. A mutation that returned 200 therefore happened
	// entirely before or entirely after a swap — never astride it. Note
	// the swap semantics it does NOT change: /swap replaces the whole
	// serving state, so mutations accepted since the incoming snapshot
	// was saved are intentionally discarded with it (operators who want
	// them call /save first; see DESIGN.md §10).
	swapMu sync.RWMutex

	quit      chan struct{}
	closeOnce sync.Once
	bg        sync.WaitGroup
}

// New builds a Server around cfg.Index, or — when cfg.Load is set —
// around a deferred index load that completes in the background while
// the server is already answering liveness probes.
func New(cfg Config) (*Server, error) {
	if cfg.Index != nil && cfg.Load != nil {
		return nil, errors.New("server: at most one of Config.Index and Config.Load may be set")
	}
	if cfg.Index == nil && cfg.Load == nil {
		// No in-process index and no loader: the only remaining boot
		// source is durable state already present in WALDir.
		if cfg.WALDir == "" || !pqfastscan.HasDurable(cfg.WALDir) {
			return nil, errors.New("server: one of Config.Index, Config.Load or a WALDir holding durable state is required")
		}
	}
	cfg = cfg.withDefaults()
	m := newMetrics(endpointNames)
	s := &Server{
		cfg:     cfg,
		metrics: m,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		cores:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		quit:    make(chan struct{}),
	}
	s.warming.Store(true)

	s.mux = http.NewServeMux()
	s.handle("/search", http.MethodPost, s.handleSearch)
	s.handle("/add", http.MethodPost, s.handleAdd)
	s.handle("/delete", http.MethodPost, s.handleDelete)
	s.handle("/healthz", http.MethodGet, s.handleHealthz)
	s.handle("/readyz", http.MethodGet, s.handleReadyz)
	s.handle("/meta", http.MethodGet, s.handleMeta)
	s.handle("/stats", http.MethodGet, s.handleStats)
	s.handle("/swap", http.MethodPost, s.handleSwap)
	s.handle("/swap/prepare", http.MethodPost, s.handleSwapPrepare)
	s.handle("/swap/commit", http.MethodPost, s.handleSwapCommit)
	s.handle("/swap/abort", http.MethodPost, s.handleSwapAbort)
	s.handle("/save", http.MethodPost, s.handleSave)
	s.handle("/compact", http.MethodPost, s.handleCompact)

	switch {
	case cfg.WALDir != "":
		// A durable boot always runs deferred, even with an in-process
		// Index: recovery replay time scales with the log, and the server
		// should answer probes (reporting "recovering") meanwhile.
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			idx, err := s.openDurable()
			if err == nil {
				err = s.attachStore(idx)
			}
			if err != nil {
				msg := err.Error()
				s.loadErr.Store(&msg)
				s.cfg.Logf("server: durable index open failed: %v", err)
				return
			}
			s.install(idx)
			s.cfg.Logf("server: durable index ready, serving %d live vectors (wal %s)", idx.Live(), cfg.WALDir)
		}()
	case cfg.Index != nil:
		if err := s.attachStore(cfg.Index); err != nil {
			return nil, err
		}
		s.install(cfg.Index)
	default:
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			idx, err := cfg.Load()
			if err == nil {
				err = s.attachStore(idx)
			}
			if err != nil {
				msg := err.Error()
				s.loadErr.Store(&msg)
				s.cfg.Logf("server: deferred index load failed: %v", err)
				return
			}
			s.install(idx)
			s.cfg.Logf("server: index loaded, serving %d live vectors", idx.Live())
		}()
	}

	if cfg.SaveInterval > 0 && (cfg.SnapshotPath != "" || cfg.WALDir != "") {
		s.bg.Add(1)
		go s.saveLoop()
	}
	if cfg.CompactInterval > 0 {
		s.bg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// openDurable opens the crash-safe serving index: recovery from WALDir
// when it holds durable state (snapshot + log replay), otherwise a
// fresh durable boot from the configured Index or Load with the WAL
// switched on. Existing durable state wins over Index/Load — it is, by
// construction, the newest acknowledged state.
func (s *Server) openDurable() (*pqfastscan.Index, error) {
	if pqfastscan.HasDurable(s.cfg.WALDir) {
		s.recovering.Store(true)
		defer s.recovering.Store(false)
		idx, err := pqfastscan.Recover(s.cfg.WALDir)
		if err != nil {
			return nil, err
		}
		s.cfg.Logf("server: recovered durable state from %s", s.cfg.WALDir)
		return idx, nil
	}
	idx := s.cfg.Index
	if idx == nil {
		var err error
		if idx, err = s.cfg.Load(); err != nil {
			return nil, err
		}
	}
	if err := idx.WithWAL(s.cfg.WALDir); err != nil {
		return nil, err
	}
	return idx, nil
}

// attachStore applies the configured disk store to an index this server
// is about to serve (no-op without StoreDir). Every index attaching to
// the same StoreDir shares one buffer pool, so a staged swap
// replacement competes for — rather than doubles — the memory budget.
func (s *Server) attachStore(idx *pqfastscan.Index) error {
	if s.cfg.StoreDir == "" {
		return nil
	}
	return idx.WithDiskStore(s.cfg.StoreDir, s.cfg.PoolBytes)
}

// install publishes the loaded index and flips the server ready.
func (s *Server) install(idx *pqfastscan.Index) {
	s.idx.Store(idx)
	s.warming.Store(false)
}

// requireIndex returns the serving index, or answers 503 and returns
// nil while a deferred load is still warming (or has failed). Every
// data endpoint calls it first, so the nil-index window of a deferred
// load is observable only as a not-ready response, never a crash.
func (s *Server) requireIndex(w http.ResponseWriter) *pqfastscan.Index {
	if idx := s.idx.Load(); idx != nil {
		return idx
	}
	msg := "warming up: index load in progress"
	if e := s.loadErr.Load(); e != nil {
		msg = "index load failed: " + *e
	}
	httpError(w, http.StatusServiceUnavailable, msg)
	return nil
}

// ready reports whether the index is installed and data endpoints can
// serve. Draining servers stay "ready" for in-flight semantics — the
// readiness probe is what goes negative, steering new traffic away.
func (s *Server) ready() bool { return !s.warming.Load() }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Index returns the serving snapshot holder (nil while a deferred load
// is still warming).
func (s *Server) Index() *pqfastscan.Index { return s.idx.Load() }

// BeginDrain marks the server not-ready without stopping it: /readyz
// turns 503 so probes and routers steer new traffic away, while
// everything already in flight (and still arriving) is served normally.
// Deployments call it on SIGTERM, then shut the HTTP listener down,
// then Close.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close refuses new searches, waits for every admitted one to be
// answered and stops the background loops. It does not close HTTP
// listeners; that is the owning http.Server's job.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		close(s.quit)
		s.bg.Wait()
		// An admitted search holds its token until it is answered, whether
		// it is scanning or still waiting for a core, and nothing is
		// admitted once quit is closed: holding every token means none is
		// left in flight.
		for range cap(s.sem) {
			s.sem <- struct{}{}
		}
		if idx := s.idx.Load(); idx != nil {
			if err := idx.CloseWAL(); err != nil {
				s.cfg.Logf("server: closing wal: %v", err)
			}
		}
	})
	return nil
}

// handle mounts an instrumented single-method handler.
func (s *Server) handle(path, method string, h func(http.ResponseWriter, *http.Request)) {
	em := s.metrics.endpoints[path]
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		em.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if r.Method != method {
			httpError(sw, http.StatusMethodNotAllowed, fmt.Sprintf("use %s", method))
		} else {
			// Bound every body before the first decode: a runaway
			// payload must fail fast, not buffer its way past the
			// admission control that protects the engine.
			if r.Body != nil {
				r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
			}
			h(sw, r)
		}
		em.lat.Observe(time.Since(start))
		switch {
		case sw.status >= 500:
			em.errors.Add(1)
		case sw.status >= 400:
			em.rejected.Add(1)
		}
	})
}

// statusWriter records the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// statusClientClosedRequest is nginx's conventional status for requests
// abandoned by the client; net/http has no named constant for it.
const statusClientClosedRequest = 499

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// errClosed is returned to requests that race server shutdown.
var errClosed = errors.New("server: shutting down")

// errShed is the one admission failure that is overload: a spent
// deadline, a canceled client or a closing server sheds nothing, and
// counting those as sheds would fake the operator's overload signal.
var errShed = errors.New("overloaded: admission queue timed out")

// admit implements admission control for /search: take a token
// immediately if one is free, otherwise wait at most QueueTimeout — and
// no longer than the request's own context allows.
func (s *Server) admit(ctx context.Context) error {
	select {
	case <-s.quit:
		return errClosed
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-t.C:
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	case <-s.quit:
		return errClosed
	}
}

// acquireCore waits for the admitted request's turn to scan. The wait
// is bounded by the request's context only: a search already admitted
// is answered even across Close.
func (s *Server) acquireCore(ctx context.Context) error {
	select {
	case s.cores <- struct{}{}:
		s.metrics.queueWait.Observe(0)
		return nil
	default:
	}
	queued := time.Now()
	select {
	case s.cores <- struct{}{}:
		s.metrics.queueWait.Observe(time.Since(queued))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// failSearch answers a /search that was not scanned to the end.
func (s *Server) failSearch(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShed):
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, errClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		// The budget ran out in the admission line, waiting for a core or
		// between partition scans: the rest of the work would be waste.
		s.metrics.deadlineRejects.Add(1)
		httpError(w, http.StatusGatewayTimeout, "deadline expired before the search was answered")
	case errors.Is(err, context.Canceled):
		// The client gave up; nobody reads this response and no overload
		// happened, so it is not a shed.
		httpError(w, statusClientClosedRequest, "client canceled")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// --- /search -----------------------------------------------------------

// SearchRequest is the /search body. K defaults to 10, NProbe to 1 and
// Kernel ("naive", "libpq", "fastpq") to PQ Fast Scan when omitted.
// Cells, when present, scans exactly those IVF cells instead of routing
// through the coarse quantizer — the sub-request shape a cluster router
// sends to its shards (nprobe must then be omitted). A ?recall=r query
// parameter, r in (0,1], fills an omitted NProbe: the query probes the
// closest cells until they hold fraction r of the live rows — a
// coverage target, not a measured recall. The block-kernel
// backend is the process's (PQ_FORCE_BACKEND pins it, /healthz reports
// it), not a request's: a body naming any other key, "backend"
// included, is a 400.
type SearchRequest struct {
	Query  []float32 `json:"query"`
	K      int       `json:"k"`
	NProbe int       `json:"nprobe,omitempty"`
	Cells  []int     `json:"cells,omitempty"`
	Kernel string    `json:"kernel,omitempty"`
}

// SearchNeighbor is one neighbor in a /search response.
type SearchNeighbor struct {
	ID       int64   `json:"id"`
	Distance float32 `json:"distance"`
}

// SearchResponse is the /search reply.
type SearchResponse struct {
	Results    []SearchNeighbor `json:"results"`
	Partitions []int            `json:"partitions"`
	// Coverage is set only on a router's degraded (partial) answer:
	// how many of the ranked probe cells were actually scanned. A
	// single node always answers in full and omits it.
	Coverage *Coverage `json:"coverage,omitempty"`
}

// Coverage quantifies a partial scatter-gather answer.
type Coverage struct {
	CellsAnswered int `json:"cells_answered"`
	CellsTotal    int `json:"cells_total"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	// An expired forwarded deadline is rejected at the door: no
	// parsing beyond the header, no admission token, no scan work.
	ctx, cancelDeadline, err := DeadlineContext(r)
	if err != nil {
		s.metrics.deadlineRejects.Add(1)
		httpError(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	defer cancelDeadline()
	// A bad request costs a 400 and nothing else: it is refused before
	// admission.
	req, err := DecodeSearch(r.Body, r.URL.RawQuery, idx.Dim(), idx.Partitions(), s.cfg.MaxK)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The option list is the one any caller of the facade would write.
	// What the request leaves open stays open: an omitted nprobe is the
	// facade's single probe, or the recall target's prefix.
	var opts []pqfastscan.SearchOption
	if len(req.Cells) > 0 {
		opts = append(opts, pqfastscan.WithCells(req.Cells...))
	}
	if req.NProbe != 0 {
		opts = append(opts, pqfastscan.WithNProbe(req.NProbe))
	}
	if req.Kernel != pqfastscan.KernelFastScan {
		opts = append(opts, pqfastscan.WithKernel(req.Kernel))
	}
	if req.Recall != 0 {
		opts = append(opts, pqfastscan.WithTargetRecall(req.Recall))
	}

	if err := s.admit(ctx); err != nil {
		s.failSearch(w, err)
		return
	}
	defer func() { <-s.sem }()
	if err := s.acquireCore(ctx); err != nil {
		s.failSearch(w, err)
		return
	}
	s.metrics.searches.Add(1)
	if s.onScan != nil {
		s.onScan()
	}
	// Under the request's own context: a client that goes away, or a
	// budget that runs out, stops the search between partition scans. The
	// core is given up before the response is encoded.
	res, err := idx.Search(ctx, req.Query, req.K, opts...)
	<-s.cores
	if err != nil {
		s.failSearch(w, err)
		return
	}
	resp := SearchResponse{
		Results:    make([]SearchNeighbor, len(res.Results)),
		Partitions: res.Partitions,
	}
	for i, n := range res.Results {
		resp.Results[i] = SearchNeighbor{ID: n.ID, Distance: n.Distance}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /add --------------------------------------------------------------

// AddRequest carries vectors to index online, row per vector.
type AddRequest struct {
	Vectors [][]float32 `json:"vectors"`
}

// AddResponse returns the ids assigned to the added vectors, in order.
type AddResponse struct {
	IDs []int64 `json:"ids"`
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	req, err := DecodeAdd(r.Body, idx.Dim())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	m := pqfastscan.NewMatrix(len(req.Vectors), idx.Dim())
	for i, v := range req.Vectors {
		copy(m.Row(i), v)
	}
	// Shared side of swapMu: concurrent adds proceed together (the index
	// write lock orders them), but never interleave with a /swap.
	s.swapMu.RLock()
	ids, err := idx.AddBatch(m)
	s.swapMu.RUnlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, AddResponse{IDs: ids})
}

// --- /delete -----------------------------------------------------------

// DeleteRequest names the vector id to tombstone.
type DeleteRequest struct {
	ID int64 `json:"id"`
}

// DeleteResponse acknowledges a completed delete.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	req, err := DecodeDelete(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.swapMu.RLock()
	err = idx.Delete(req.ID)
	s.swapMu.RUnlock()
	if errors.Is(err, pqfastscan.ErrNotFound) {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: true})
}

// --- /healthz, /readyz, /meta, /stats ----------------------------------

// handleHealthz is the liveness probe: it answers 200 whenever the
// process is up — including while the index is still loading, while a
// swap-prepare is staging, and while the server drains for shutdown. A
// supervisor restarting on liveness failures must never kill a process
// that is merely warming or draining; that is what /readyz signals.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The scan backend is surfaced here (not only on /stats) so
	// deployment probes can verify a host is actually running the
	// assembly kernels and not a silent SWAR fallback.
	live := 0
	if idx := s.idx.Load(); idx != nil {
		live = idx.Live()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"live":     live,
		"uptime_s": time.Since(s.metrics.start).Seconds(),
		"backend":  pqfastscan.ActiveBackend().String(),
	})
}

// handleReadyz is the readiness probe: 200 only when the server wants
// new traffic. It goes 503 (with a reason) while the initial index load
// is in progress or has failed, while a /swap/prepare is loading and
// validating a snapshot, and from the moment a drain begins — so
// routers and deployment probes steer requests elsewhere during exactly
// the windows where this process would serve them slowly or not at all.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		httpError(w, http.StatusServiceUnavailable, "draining: shutdown in progress")
	case s.recovering.Load():
		httpError(w, http.StatusServiceUnavailable, "recovering: wal replay in progress")
	case s.warming.Load():
		msg := "warming up: index load in progress"
		if e := s.loadErr.Load(); e != nil {
			msg = "index load failed: " + *e
		}
		httpError(w, http.StatusServiceUnavailable, msg)
	case s.preparing.Load() > 0:
		httpError(w, http.StatusServiceUnavailable, "swap prepare in progress")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// MetaResponse is the /meta reply: the immutable shape of the serving
// index plus this server's shard assignment. A cluster router reads it
// at startup to learn the coarse centroids (for bit-identical cell
// ranking), validate that every shard serves the same geometry, and
// check cell coverage.
type MetaResponse struct {
	Dim        int `json:"dim"`
	Partitions int `json:"partitions"`
	PQM        int `json:"pq_m"`
	Live       int `json:"live"`
	// Cells is the shard assignment (Config.Cells); absent means the
	// server holds every cell, i.e. it is a whole-index node.
	Cells []int `json:"cells,omitempty"`
	// Centroids is the coarse quantizer codebook, row per IVF cell.
	// float32 values survive a JSON round trip exactly (encoding/json
	// formats them shortest-form and parses back to the same bits), so
	// the router's cell ranking matches the engine's bit-for-bit.
	Centroids [][]float32 `json:"centroids"`
	// CellSizes is the live row count per cell (cells this server does
	// not hold report 0) — the mass signal a router needs to map a
	// ?recall= target to the same probe-prefix length a single node
	// picks (DESIGN.md §16).
	CellSizes []int  `json:"cell_sizes,omitempty"`
	Backend   string `json:"backend"`
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	pstats := idx.PartitionStats()
	sizes := make([]int, len(pstats))
	for i, ps := range pstats {
		sizes[i] = ps.Live
	}
	writeJSON(w, http.StatusOK, MetaResponse{
		Dim:        idx.Dim(),
		Partitions: idx.Partitions(),
		PQM:        idx.PQM(),
		Live:       idx.Live(),
		Cells:      s.cfg.Cells,
		Centroids:  idx.CoarseCentroids(),
		CellSizes:  sizes,
		Backend:    pqfastscan.ActiveBackend().String(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// StatsSnapshot assembles the current /stats document. Live, Partitions
// and PartitionStats all derive from one PartitionStats() call — one
// epoch snapshot — so the document is internally consistent
// (live == sum of per-partition live, partitions[i] == live+dead) no
// matter what mutations land while it is built.
func (s *Server) StatsSnapshot() Stats {
	var pstats []pqfastscan.PartitionStat
	var walStats *pqfastscan.WALStats
	var storeStats *pqfastscan.StoreStats
	if idx := s.idx.Load(); idx != nil {
		pstats = idx.PartitionStats()
		if ws, ok := idx.WALStats(); ok {
			walStats = &ws
		}
		if ss, ok := idx.StoreStats(); ok {
			storeStats = &ss
		}
	}
	live := 0
	sizes := make([]int, len(pstats))
	for i, ps := range pstats {
		live += ps.Live
		sizes[i] = ps.Live + ps.Dead
	}
	st := Stats{
		UptimeS:        time.Since(s.metrics.start).Seconds(),
		Backend:        pqfastscan.ActiveBackend().String(),
		CPUFeatures:    pqfastscan.CPUFeatures(),
		Live:           live,
		Partitions:     sizes,
		PartitionStats: pstats,
		Endpoints:      make(map[string]EndpointStats, len(endpointNames)),
		Batch:          s.metrics.batchStats(),
		Compaction: CompactionStats{
			Threshold:       s.cfg.CompactThreshold,
			Runs:            s.metrics.compactions.Load(),
			Reclaimed:       s.metrics.compactReclaimed.Load(),
			Errors:          s.metrics.compactErrors.Load(),
			LastCompactUnix: s.metrics.lastCompact.Load(),
		},
		Admission: AdmissionStats{
			MaxInFlight:     s.cfg.MaxInFlight,
			InFlight:        len(s.sem),
			Shed:            s.metrics.shed.Load(),
			QueueTimeout:    s.cfg.QueueTimeout.String(),
			DeadlineRejects: s.metrics.deadlineRejects.Load(),
		},
		Snapshot: SnapshotStats{
			Swaps:        s.metrics.swaps.Load(),
			Saves:        s.metrics.saves.Load(),
			SaveErrors:   s.metrics.saveErrors.Load(),
			LastSaveUnix: s.metrics.lastSave.Load(),
			Path:         s.cfg.SnapshotPath,
		},
		WAL:     walStats,
		BufPool: storeStats,
		Mem:     readMemStats(),
	}
	for name, em := range s.metrics.endpoints {
		st.Endpoints[name] = em.stats()
	}
	return st
}

// --- /swap, /save ------------------------------------------------------

// SwapRequest names the persisted index file to load and serve.
type SwapRequest struct {
	Path string `json:"path"`
}

// SwapResponse acknowledges a completed snapshot swap.
type SwapResponse struct {
	Swapped    bool  `json:"swapped"`
	Live       int   `json:"live"`
	Partitions []int `json:"partitions"`
}

// stage loads the snapshot a swap request names, off the serving path
// and outside every lock — a slow disk read never stalls mutations or
// saves, and traffic keeps flowing on the current snapshot. A sharded
// server loads only its assigned cells. Every index this server stages
// attaches to the same store directory and so shares one buffer pool:
// staging competes for the memory budget instead of doubling it. On
// failure stage has answered the request and returns nil.
func (s *Server) stage(w http.ResponseWriter, r *http.Request) (next *pqfastscan.Index, path string) {
	req, err := DecodeSwap(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, ""
	}
	next, err = pqfastscan.LoadIndexCells(req.Path, s.cfg.Cells)
	if err != nil {
		httpError(w, http.StatusBadRequest, "load: "+err.Error())
		return nil, ""
	}
	if err := s.attachStore(next); err != nil {
		httpError(w, http.StatusInternalServerError, "attach store: "+err.Error())
		return nil, ""
	}
	return next, req.Path
}

// publish makes next the serving snapshot — the single atomic store —
// and, on a durable server, checkpoints it before any mutation can be
// acknowledged against it. done is the verb of the calling endpoint's
// acknowledgement. On failure publish has answered the request and
// returns false.
func (s *Server) publish(w http.ResponseWriter, idx, next *pqfastscan.Index, done string) bool {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if _, err := idx.Swap(next); err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return false
	}
	if err := s.checkpointAfterSwapLocked(idx); err != nil {
		httpError(w, http.StatusInternalServerError, done+", but checkpoint failed: "+err.Error())
		return false
	}
	s.metrics.swaps.Add(1)
	return true
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	next, path := s.stage(w, r)
	if next == nil || !s.publish(w, idx, next, "swapped") {
		return
	}
	s.cfg.Logf("server: swapped in snapshot %s (%d live vectors)", path, idx.Live())
	writeJSON(w, http.StatusOK, SwapResponse{
		Swapped:    true,
		Live:       idx.Live(),
		Partitions: idx.PartitionSizes(),
	})
}

// --- two-phase swap: /swap/prepare, /swap/commit, /swap/abort ----------
//
// The one-shot /swap is perfect for a single node, but a router swapping
// a whole fleet with it would expose mixed-epoch windows: shard 1 serves
// the new snapshot while shard 2 still loads it, and cross-shard merges
// combine different datasets. The two-phase protocol separates the slow
// part from the visible part. Prepare loads and validates the snapshot
// off the serving path and stages it — taking seconds, changing nothing
// observable. Commit publishes the staged index — one atomic pointer
// swap, microseconds. A router prepares everywhere, then commits
// everywhere, and the fleet's epoch skew shrinks from load time to
// commit-RPC time; any prepare failure aborts the fleet before anything
// changed.

// PrepareResponse acknowledges a staged snapshot.
type PrepareResponse struct {
	Prepared bool   `json:"prepared"`
	Path     string `json:"path"`
	Live     int    `json:"live"`
}

func (s *Server) handleSwapPrepare(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	// preparing makes /readyz report not-ready so routers deprioritize a
	// shard busy churning page cache.
	s.preparing.Add(1)
	next, path := s.stage(w, r)
	s.preparing.Add(-1)
	if next == nil {
		return
	}
	// Validate now, against the serving index, so commit cannot fail for
	// a reason prepare could have caught — that is the point of the
	// protocol.
	if err := idx.CompatibleWith(next); err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	s.stagedMu.Lock()
	replaced := s.staged != nil
	s.staged, s.stagedPath = next, path
	s.stagedMu.Unlock()
	if replaced {
		s.cfg.Logf("server: re-prepared snapshot %s (replacing previously staged)", path)
	} else {
		s.cfg.Logf("server: prepared snapshot %s (%d live vectors staged)", path, next.Live())
	}
	writeJSON(w, http.StatusOK, PrepareResponse{Prepared: true, Path: path, Live: next.Live()})
}

// CommitResponse acknowledges a committed (published) snapshot.
type CommitResponse struct {
	Committed bool   `json:"committed"`
	Path      string `json:"path"`
	Live      int    `json:"live"`
}

func (s *Server) handleSwapCommit(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	s.stagedMu.Lock()
	next, path := s.staged, s.stagedPath
	s.staged, s.stagedPath = nil, ""
	s.stagedMu.Unlock()
	if next == nil {
		httpError(w, http.StatusConflict, "no snapshot staged: call /swap/prepare first")
		return
	}
	// A 409 here is unreachable when prepare validated against the same
	// serving index, but a direct /swap can land between the two phases.
	if !s.publish(w, idx, next, "committed") {
		return
	}
	s.cfg.Logf("server: committed snapshot %s (%d live vectors)", path, idx.Live())
	writeJSON(w, http.StatusOK, CommitResponse{Committed: true, Path: path, Live: idx.Live()})
}

// AbortResponse reports whether an abort discarded a staged snapshot.
type AbortResponse struct {
	Aborted   bool   `json:"aborted"`
	Discarded bool   `json:"discarded"`
	Path      string `json:"path,omitempty"`
}

func (s *Server) handleSwapAbort(w http.ResponseWriter, r *http.Request) {
	s.stagedMu.Lock()
	discarded := s.staged != nil
	path := s.stagedPath
	s.staged, s.stagedPath = nil, ""
	s.stagedMu.Unlock()
	if discarded {
		s.cfg.Logf("server: aborted staged snapshot %s", path)
	}
	writeJSON(w, http.StatusOK, AbortResponse{Aborted: true, Discarded: discarded, Path: path})
}

// SaveRequest optionally overrides the configured snapshot path.
type SaveRequest struct {
	Path string `json:"path,omitempty"`
}

// SaveResponse acknowledges a completed save.
type SaveResponse struct {
	Saved bool   `json:"saved"`
	Path  string `json:"path"`
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSave(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	path := req.Path
	if path == "" && s.cfg.WALDir != "" {
		// Parameterless save on a durable server is a checkpoint: it
		// persists the durable snapshot and truncates the log. An
		// explicit path is still a plain export (below), leaving the
		// durable state untouched.
		if err := s.checkpoint(); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, SaveResponse{Saved: true, Path: filepath.Join(s.cfg.WALDir, pqfastscan.SnapshotFileName)})
		return
	}
	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		httpError(w, http.StatusBadRequest, "no path given and no SnapshotPath configured")
		return
	}
	if err := s.save(path); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SaveResponse{Saved: true, Path: path})
}

// checkpointAfterSwapLocked makes a just-committed swap durable. The
// caller holds swapMu exclusively, so no mutation can be acknowledged
// between the snapshot swap and the checkpoint — the window in which a
// crash would recover pre-swap state under a log claiming post-swap
// mutations. Until the checkpoint returns, the swap is not durable;
// after it, recovery starts from the swapped-in snapshot.
func (s *Server) checkpointAfterSwapLocked(idx *pqfastscan.Index) error {
	if s.cfg.WALDir == "" {
		return nil
	}
	if err := idx.Checkpoint(); err != nil {
		s.metrics.saveErrors.Add(1)
		return err
	}
	s.metrics.saves.Add(1)
	s.metrics.lastSave.Store(time.Now().Unix())
	return nil
}

// checkpoint persists the durable snapshot and truncates the log — the
// WAL-mode counterpart of save, run by the periodic saver and by
// parameterless /save.
func (s *Server) checkpoint() error {
	idx := s.idx.Load()
	if idx == nil {
		return errors.New("server: no index loaded yet")
	}
	// Shared side of swapMu: the checkpoint's own durability lock orders
	// it against mutations; here it only must not interleave with a
	// /swap (whose handler runs its own checkpoint under the write
	// side).
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	if err := idx.Checkpoint(); err != nil {
		s.metrics.saveErrors.Add(1)
		return err
	}
	s.metrics.saves.Add(1)
	s.metrics.lastSave.Store(time.Now().Unix())
	return nil
}

func (s *Server) save(path string) error {
	idx := s.idx.Load()
	if idx == nil {
		return errors.New("server: no index loaded yet")
	}
	// Shared side of swapMu: a save serializes one immutable epoch
	// snapshot and never blocks mutations or compaction — it only must
	// not interleave with a /swap replacing the serving index wholesale.
	// Concurrent saves are safe with each other (each writes its own
	// temp file and renames atomically).
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	if err := idx.Save(path); err != nil {
		s.metrics.saveErrors.Add(1)
		return err
	}
	s.metrics.saves.Add(1)
	s.metrics.lastSave.Store(time.Now().Unix())
	return nil
}

// --- /compact ----------------------------------------------------------

// CompactRequest triggers online tombstone reclamation. An absent or
// negative partition selects policy mode: every partition whose dead
// ratio reaches Threshold (default: the configured CompactThreshold) is
// compacted. A non-negative Partition compacts that one cell
// unconditionally.
type CompactRequest struct {
	// Partition, when >= 0, compacts exactly that cell; negative (the
	// default when the field is absent) applies the threshold policy
	// across all cells.
	Partition int `json:"partition"`
	// Threshold overrides the configured dead-ratio threshold for this
	// call, in [0, 1] and in policy mode only (with a Partition it is a
	// 400). Zero means "use the configured value"; to compact any
	// partition holding tombstones pass a tiny positive value such as
	// 1e-9.
	Threshold float64 `json:"threshold,omitempty"`
}

// CompactResponse reports the partitions compacted and the rows
// reclaimed.
type CompactResponse struct {
	Compacted []pqfastscan.CompactionResult `json:"compacted"`
	Reclaimed int                           `json:"reclaimed"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	idx := s.requireIndex(w)
	if idx == nil {
		return
	}
	req, err := DecodeCompact(r.Body, idx.Partitions())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var results []pqfastscan.CompactionResult
	if req.Partition >= 0 {
		s.swapMu.RLock()
		var one pqfastscan.CompactionResult
		one, err = idx.CompactPartition(req.Partition)
		s.swapMu.RUnlock()
		if err == nil && one.Reclaimed > 0 {
			results = append(results, one)
		}
	} else {
		threshold := req.Threshold
		if threshold == 0 {
			threshold = s.cfg.CompactThreshold
		}
		results, err = s.compactSweep(threshold)
	}
	if err != nil {
		// The request was well-formed (range-checked above); a failure
		// here is an index-side problem.
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	reclaimed := 0
	for _, c := range results {
		reclaimed += c.Reclaimed
	}
	s.recordCompactions(results)
	writeJSON(w, http.StatusOK, CompactResponse{Compacted: results, Reclaimed: reclaimed})
}

// compactSweep applies the dead-ratio policy one partition at a time,
// taking the shared side of swapMu per partition rather than across the
// whole sweep: compactions must not interleave with a /swap, but a
// pending swap should wait for at most one partition rebuild — holding
// the read side across the full sweep would park the swap (and, because
// a waiting writer blocks new readers, every mutation behind it) for
// the sweep's whole duration. A swap landing mid-sweep is fine: later
// iterations just re-evaluate dead ratios against the new index.
func (s *Server) compactSweep(threshold float64) ([]pqfastscan.CompactionResult, error) {
	idx := s.idx.Load()
	if idx == nil {
		// The background loop can tick before a deferred load completes;
		// nothing to compact is not an error.
		return nil, nil
	}
	var out []pqfastscan.CompactionResult
	for _, st := range idx.PartitionStats() {
		if st.Dead == 0 || st.DeadRatio < threshold {
			continue
		}
		s.swapMu.RLock()
		var (
			r   pqfastscan.CompactionResult
			err error
		)
		if st.Partition < idx.Partitions() { // the index may have been swapped mid-sweep
			r, err = idx.CompactPartition(st.Partition)
		}
		s.swapMu.RUnlock()
		if err != nil {
			return out, err
		}
		if r.Reclaimed > 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

// recordCompactions folds completed compactions into the metrics.
func (s *Server) recordCompactions(results []pqfastscan.CompactionResult) {
	if len(results) == 0 {
		return
	}
	reclaimed := 0
	for _, c := range results {
		reclaimed += c.Reclaimed
	}
	s.metrics.compactions.Add(int64(len(results)))
	s.metrics.compactReclaimed.Add(int64(reclaimed))
	s.metrics.lastCompact.Store(time.Now().Unix())
	s.cfg.Logf("server: compacted %d partition(s), reclaimed %d tombstoned rows", len(results), reclaimed)
}

// compactLoop applies the dead-ratio compaction policy every
// CompactInterval: partitions past the threshold are rebuilt without
// their tombstones, off the serving path, and published under live
// traffic.
func (s *Server) compactLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			results, err := s.compactSweep(s.cfg.CompactThreshold)
			if err != nil {
				s.metrics.compactErrors.Add(1)
				s.cfg.Logf("server: background compaction: %v", err)
				continue
			}
			s.recordCompactions(results)
		case <-s.quit:
			return
		}
	}
}

// saveLoop persists the serving index every SaveInterval, so a crashed
// server restarts from a recent snapshot instead of the build artifact.
func (s *Server) saveLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.SaveInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.cfg.WALDir != "" {
				if err := s.checkpoint(); err != nil {
					s.cfg.Logf("server: periodic checkpoint: %v", err)
				} else {
					s.cfg.Logf("server: checkpointed durable snapshot in %s", s.cfg.WALDir)
				}
				continue
			}
			if err := s.save(s.cfg.SnapshotPath); err != nil {
				s.cfg.Logf("server: periodic save: %v", err)
			} else {
				s.cfg.Logf("server: saved snapshot to %s", s.cfg.SnapshotPath)
			}
		case <-s.quit:
			return
		}
	}
}

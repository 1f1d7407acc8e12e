package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"pqfastscan"
	"pqfastscan/internal/cluster"
	"pqfastscan/internal/index"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/server"
	"pqfastscan/internal/topk"
)

// spec is the shape of a workload's operations.
type spec struct {
	name    string
	k       int
	nprobe  int
	clients int
	cycle   int  // operations per fixed cycle; 1 when every operation is a search
	http    bool // the callers POST to a listener instead of calling the facade
}

// mixedCycle is lib_mixed's operation order: Search, Add, Delete.
const mixedCycle = "SSSSASSSSADD"

func specFor(name string) spec {
	// Callers that wait for a reply, from this one process: as many as
	// the machine has cores, at most two.
	callers := min(2, runtime.NumCPU())
	switch name {
	case "lib_scanall":
		return spec{name, 10, partitions, 1, 1, false}
	case "lib_mixed":
		return spec{name, 100, 1, 1, len(mixedCycle), false}
	case "serve_search":
		return spec{name, 100, 1, callers, 1, true}
	default: // router_search
		return spec{name, 100, 2, callers, 1, true}
	}
}

// options are the facade options that give the workload's query shape;
// nprobe=1 is the facade's default and is left unsaid.
func (s spec) options() []pqfastscan.SearchOption {
	if s.nprobe == 1 {
		return nil
	}
	return []pqfastscan.SearchOption{pqfastscan.WithNProbe(s.nprobe)}
}

// workload is one way of putting load on the system.
type workload interface {
	// ask answers one query through the workload's own path.
	ask(q []float32) ([]pqfastscan.Result, error)
	// op is the closed loop's operation. With a tracer, every second
	// operation runs inside a client-side span, and a pool entry is
	// spanned on one pass and plain on the next, so both do the same work.
	op(tr *tracer) opFunc
	close() error
}

func sameAnswer(a, b []pqfastscan.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- library workloads ----------------------------------------------------

// libWorkload calls the facade from one goroutine: searches alone
// (lib_scanall) or the fixed Search/Add/Delete cycle (lib_mixed). It also
// answers queries stage by stage from outside, for the traced run.
type libWorkload struct {
	c    *corpus
	sp   spec
	opts []pqfastscan.SearchOption
	ctx  context.Context

	searches int
	round    int // pool entries the searches go round: all of them, or in the stage phases the first stagePool
	written  int
	live     []int64 // ids this run added and has not deleted, oldest first
	firstID  int64   // first id this run added, -1 before that
	deadTo   int64   // every id in [firstID, deadTo) has been deleted
	adds     int
	deletes  int
	fresh    [partitions]bool // partition replaced by an Add since its last search

	// Scratch of the stage-by-stage path.
	in    *index.Index
	cells []int
	dists []float32
	sc    *scan.Scratch
}

func newLibWorkload(c *corpus, sp spec) *libWorkload {
	return &libWorkload{
		c: c, sp: sp, opts: sp.options(), ctx: context.Background(), firstID: -1, round: poolSize,
		in: c.idx.Internal(), cells: make([]int, partitions), dists: make([]float32, partitions),
		sc: scan.NewScratch(),
	}
}

func (w *libWorkload) close() error { return nil }

func (w *libWorkload) ask(q []float32) ([]pqfastscan.Result, error) {
	res, err := w.c.idx.Search(w.ctx, q, w.sp.k, w.opts...)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

func (w *libWorkload) step(n int) byte {
	if w.sp.cycle == 1 {
		return 'S'
	}
	return mixedCycle[n%len(mixedCycle)]
}

func (w *libWorkload) op(tr *tracer) opFunc {
	return func(c, n int) (done, error) {
		if tr != nil && w.turn(2) == 1 {
			return w.do(tr, c, n)
		}
		return w.do(nil, c, n)
	}
}

// do runs the n-th operation through the facade, inside a span when tr
// is set.
func (w *libWorkload) do(tr *tracer, c, n int) (done, error) {
	var sp int32
	switch w.step(n) {
	case 'A':
		// No key, so no part in the slowdown estimate: an add comes up a
		// few times a window, and its allocations cost it another amount
		// every time.
		add := done{kind: kAdd, key: -1}
		entry := w.written % poolSize
		v := w.c.writes.Row(entry)
		w.written++
		if tr != nil {
			sp = tr.begin(c, spAdd, -1, n, int32(entry))
		}
		id, err := w.c.idx.Add(v)
		if tr != nil {
			tr.end(c, sp)
		}
		if err != nil {
			return add, err
		}
		if w.firstID < 0 {
			w.firstID, w.deadTo = id, id
		}
		if want := w.firstID + int64(w.adds); id != want {
			return add, fmt.Errorf("add returned id %d, want %d", id, want)
		}
		w.adds++
		w.live = append(w.live, id)
		w.fresh[w.in.RoutePartition(v)] = true
		return add, nil
	case 'D':
		del := done{kind: kDelete, key: -1}
		id := w.live[0]
		w.live = w.live[1:]
		if tr != nil {
			sp = tr.begin(c, spDelete, -1, n, -1)
		}
		err := w.c.idx.Delete(id)
		if tr != nil {
			tr.end(c, sp)
		}
		if err != nil {
			return del, err
		}
		w.deletes++
		w.deadTo = id + 1
		return del, nil
	}
	key, q := w.nextQuery()
	kind := kSearch
	if tr != nil {
		kind = kSearchSpanned
		sp = tr.begin(c, spSearch, -1, n, key)
	}
	res, err := w.c.idx.Search(w.ctx, q, w.sp.k, w.opts...)
	if tr != nil {
		tr.end(c, sp)
	}
	if err != nil {
		return done{kind: kind, key: key}, err
	}
	if err := w.checkLive(res.Results); err != nil {
		return done{kind: kind, key: key}, err
	}
	fresh := false
	if w.sp.nprobe == 1 {
		p := res.Partitions[0]
		fresh, w.fresh[p] = w.fresh[p], false
	}
	return done{kind: kind, key: key, fresh: fresh}, nil
}

// turn says which of `of` variants the next search takes. Variants take
// turns search by search, and shift by one with every pass over the pool,
// so each pool entry meets every variant.
func (w *libWorkload) turn(of int) int { return turnOf(w.searches, w.round, of) }

func turnOf(n, round, of int) int { return (n + n/round) % of }

func (w *libWorkload) nextQuery() (int32, []float32) {
	i := w.searches % w.round
	w.searches++
	return int32(i), w.c.pool.Row(i)
}

// checkLive rejects a short answer and one that holds a deleted id. The
// ids this run adds are consecutive and it deletes the oldest first, so
// the deleted ones are a range.
func (w *libWorkload) checkLive(res []pqfastscan.Result) error {
	if len(res) != w.sp.k {
		return fmt.Errorf("search returned %d neighbours, want %d", len(res), w.sp.k)
	}
	for _, r := range res {
		if r.ID >= w.firstID && r.ID < w.deadTo && w.firstID >= 0 {
			return fmt.Errorf("search returned deleted id %d", r.ID)
		}
	}
	return nil
}

// stageOp is the operation of the two stage phases: the same cycle, its
// searches answered stage by stage from outside. In the first phase they
// take turns with the facade inside a span, which the stages must add up
// to; in the second (exact) PQ Scan runs where Fast Scan would have, on
// its own so that its larger footprint does not slow the others.
func (w *libWorkload) stageOp(tr *tracer, exact bool) opFunc {
	w.round = stagePool
	return func(c, n int) (done, error) {
		if w.step(n) != 'S' || (!exact && w.turn(2) == 0) {
			return w.do(tr, c, n)
		}
		key, q := w.nextQuery()
		stage := done{kind: kStage, key: key}
		res, err := w.composed(tr, c, n, key, q, exact)
		if err != nil {
			return stage, err
		}
		if err := w.checkLive(res); err != nil {
			return stage, err
		}
		// Every sixteenth pool entry is put to the facade as well: the
		// stages must return its exact answer, or their times describe
		// another computation.
		if key%16 == 0 {
			want, err := w.ask(q)
			if err != nil {
				return stage, err
			}
			if !sameAnswer(res, want) {
				return stage, errors.New("stages composed from outside differ from the facade's answer")
			}
		}
		return stage, nil
	}
}

// composed answers q the way index.Query does, calling each layer's
// public function from here, every call inside a span. With exact, the
// partitions are scanned by PQ Scan (scan.ExactNative) over the same
// tables where Fast Scan would have run.
func (w *libWorkload) composed(tr *tracer, c, qid int, key int32, q []float32, exact bool) ([]pqfastscan.Result, error) {
	root := tr.begin(c, spComposed, -1, qid, key)
	defer tr.end(c, root)

	s := tr.begin(c, spRank, root, qid, key)
	cells := w.in.RankCellsInto(q, w.cells, w.dists)[:w.sp.nprobe]
	tr.end(c, s)

	var heap *topk.Heap
	var out []pqfastscan.Result
	for _, cell := range cells {
		s = tr.begin(c, spLUT, root, qid, key)
		t := w.in.Tables(q, cell)
		tr.end(c, s)

		var res []topk.Result
		if exact {
			part := w.in.Snapshot().Parts[cell].Part
			s = tr.begin(c, spPQScan, root, qid, key)
			res, _ = scan.ExactNative(part, t, w.sp.k, w.sc)
			tr.end(c, s)
			tr.bufs[c][s].codes, tr.bufs[c][s].bytes = int64(part.N), int64(part.N)*int64(w.in.PQ.M)
		} else {
			s = tr.begin(c, spFastScan, root, qid, key)
			fs, err := w.in.FastScanner(cell)
			if err != nil {
				return nil, err
			}
			var st scan.Stats
			res, st = fs.ScanNativeBackend(t, w.sp.k, w.sc, index.BackendAuto)
			tr.end(c, s)
			tr.bufs[c][s].codes, tr.bufs[c][s].bytes = int64(st.Scanned), int64(fs.Grouped().PackedBytes())
		}

		s = tr.begin(c, spMerge, root, qid, key)
		if len(cells) == 1 {
			out = append([]pqfastscan.Result(nil), res...) // res aliases the scratch
		} else {
			if heap == nil {
				heap = topk.New(w.sp.k)
			}
			for _, r := range res {
				heap.Push(r.ID, r.Distance)
			}
		}
		tr.end(c, s)
	}
	if heap != nil {
		s = tr.begin(c, spMerge, root, qid, key)
		out = heap.Results()
		tr.end(c, s)
	}
	return out, nil
}

// --- HTTP workloads -------------------------------------------------------

// poster is one caller's HTTP connection.
type poster struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newPoster() *poster {
	return &poster{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}}
}

// post sends body and returns the reply, which is valid until the next
// call. Any status but 200 is an error.
func (p *poster) post(url string, body []byte) ([]byte, error) {
	resp, err := p.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	p.buf.Reset()
	if _, err := io.Copy(&p.buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.120s", url, resp.StatusCode, p.buf.Bytes())
	}
	return p.buf.Bytes(), nil
}

func decodeAnswer(reply []byte) ([]pqfastscan.Result, error) {
	var sr server.SearchResponse
	if err := json.Unmarshal(reply, &sr); err != nil {
		return nil, fmt.Errorf("bad reply: %w", err)
	}
	out := make([]pqfastscan.Result, len(sr.Results))
	for i, n := range sr.Results {
		out[i] = pqfastscan.Result{ID: n.ID, Distance: n.Distance}
	}
	return out, nil
}

// node is one in-process server (or router) behind a loopback listener.
type node struct {
	url  string
	hs   *http.Server
	srv  *server.Server // nil for the router's listener
	done chan error     // Serve's return, one send
}

func listen(h http.Handler, srv *server.Server) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, srv: srv, done: make(chan error, 1)}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

func serve(cfg server.Config) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	n, err := listen(srv.Handler(), srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return n, nil
}

func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	if n.srv != nil {
		if cerr := n.srv.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// stagePool is how much of the pool the stage phases go round. They are
// short and split between variants, and the slowdown estimate needs every
// piece of work to come up a dozen times or more; the load phase's numbers
// they are compared with are taken over the same entries.
const stagePool = 64

// checkEvery is how often a caller decodes a reply during the run and
// compares it with the library's answer.
const checkEvery = 64

// httpWorkload posts pre-marshalled /search requests from two callers to
// an in-process server (serve_search) or to a router over two in-process
// shards (router_search).
type httpWorkload struct {
	c       *corpus
	sp      spec
	nodes   []*node // the search server, or the shards and then the router's listener
	router  *cluster.Router
	url     string
	bodies  [][]byte
	callers []*poster
	expect  map[int][]pqfastscan.Result // library answers of the pool entries whose replies get decoded
}

func marshalSearch(q []float32, k, nprobe int, cells []int) []byte {
	req := server.SearchRequest{Query: q, K: k, Cells: cells}
	if len(cells) == 0 {
		req.NProbe = nprobe
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of numbers always marshals
	}
	return b
}

func newHTTPWorkload(c *corpus, sp spec) (*httpWorkload, error) {
	w := &httpWorkload{c: c, sp: sp, expect: make(map[int][]pqfastscan.Result)}
	if sp.name == "serve_search" {
		n, err := serve(server.Config{Index: c.idx})
		if err != nil {
			return nil, err
		}
		w.nodes = []*node{n}
		w.url = n.url + "/search"
	} else {
		var shards []cluster.ShardSpec
		for lo := 0; lo < partitions; lo += partitions / 2 {
			cells := []int{lo, lo + 1}
			part, err := c.idx.RestrictCells(cells...)
			if err == nil {
				var n *node
				if n, err = serve(server.Config{Index: part, Cells: cells}); err == nil {
					w.nodes = append(w.nodes, n)
					shards = append(shards, cluster.ShardSpec{Lo: lo, Hi: lo + 1, Endpoints: []string{n.url}})
				}
			}
			if err != nil {
				w.close()
				return nil, err
			}
		}
		var err error
		// The router's defaults, but for its fault handling: an attempt
		// on a shard times out after 25 ms, a query gives up after three,
		// and five failures open the shard's breaker for a second. Those
		// thresholds suit a fleet; this shared two-core machine stalls for
		// 50-130 ms a few times a minute, and one such stall became 183
		// failed queries. Stalls are this machine's noise, not the system's
		// load, so here a query keeps trying. Second attempts are counted
		// in every run and fail it beyond maxRetryShare (checkRetries).
		cfg := cluster.Config{Shards: shards, BreakerThreshold: -1, MaxAttempts: 16}
		if w.router, err = cluster.New(cfg); err != nil {
			w.close()
			return nil, err
		}
		n, err := listen(w.router.Handler(), nil)
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, n)
		w.url = n.url + "/search"
	}
	for i := 0; i < sp.clients; i++ {
		w.callers = append(w.callers, newPoster())
	}
	w.bodies = make([][]byte, poolSize)
	for i := range w.bodies {
		w.bodies[i] = marshalSearch(c.pool.Row(i), sp.k, sp.nprobe, nil)
	}
	for i := 0; i < poolSize; i += checkEvery {
		res, err := c.idx.Search(context.Background(), c.pool.Row(i), sp.k, sp.options()...)
		if err != nil {
			w.close()
			return nil, err
		}
		w.expect[i] = res.Results
	}
	return w, nil
}

func (w *httpWorkload) close() error {
	var first error
	if w.router != nil {
		w.router.Close()
	}
	// The router's listener is last in nodes and goes down first.
	for i := len(w.nodes) - 1; i >= 0; i-- {
		if err := w.nodes[i].close(); first == nil {
			first = err
		}
	}
	for _, p := range w.callers {
		p.hc.CloseIdleConnections()
	}
	w.nodes = nil
	return first
}

func (w *httpWorkload) ask(q []float32) ([]pqfastscan.Result, error) {
	reply, err := w.callers[0].post(w.url, marshalSearch(q, w.sp.k, w.sp.nprobe, nil))
	if err != nil {
		return nil, err
	}
	return decodeAnswer(reply)
}

func (w *httpWorkload) op(tr *tracer) opFunc { return w.opTo(tr, w.url, w.bodies) }

// opTo is the callers' operation against url: caller c starts at its own
// share of the pool and cycles through all of it. Every checkEvery-th
// reply is decoded and must equal the library's answer.
func (w *httpWorkload) opTo(tr *tracer, url string, bodies [][]byte) opFunc {
	return func(c, n int) (done, error) {
		i := (c*poolSize/w.sp.clients + n) % poolSize
		key := int32(i)
		kind := kSearch
		var sp int32
		if tr != nil && turnOf(n, poolSize, 2) == 1 {
			kind = kSearchSpanned
			sp = tr.begin(c, spHTTPPost, -1, n, key)
		}
		reply, err := w.callers[c].post(url, bodies[i])
		if kind == kSearchSpanned {
			tr.end(c, sp)
		}
		if err != nil {
			return done{kind: kind, key: key}, err
		}
		if want, ok := w.expect[i]; ok && n%checkEvery == 0 {
			got, err := decodeAnswer(reply)
			if err != nil {
				return done{kind: kind, key: key}, err
			}
			if !sameAnswer(got, want) {
				return done{kind: kind, key: key}, fmt.Errorf("reply to pool query %d differs from the library's answer", i)
			}
		} else if len(reply) == 0 {
			return done{kind: kind, key: key}, errors.New("empty reply")
		}
		return done{kind: kind, key: key}, nil
	}
}

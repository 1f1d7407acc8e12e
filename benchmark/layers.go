package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"pqfastscan/internal/cluster"
	"pqfastscan/internal/server"
	"pqfastscan/internal/wal"
)

// traced is the traced run: the workload's own load for half the window,
// every second operation inside a client-side span, then the stages of
// its queries called one by one from here, then (HTTP workloads) each
// serving layer driven alone. The window is cut in sixteenths.
func traced(cfg runConfig, c *corpus, w workload, lib *libWorkload, lp loop, tr *tracer, next []int, out *outcome) error {
	m := out.metrics
	unit := cfg.window / 16
	hw, _ := w.(*httpWorkload)
	sp := specFor(cfg.workload)
	loadUnits := 8
	if hw != nil && hw.router != nil {
		loadUnits = 6
	}

	var before, after runtime.MemStats
	var srvBefore, srvAfter counters
	if hw != nil {
		srvBefore = hw.counters()
	}
	runtime.ReadMemStats(&before)
	load := lp.drive(unit*time.Duration(loadUnits), next, w.op(tr))
	runtime.ReadMemStats(&after)
	if hw != nil {
		srvAfter = hw.counters()
	}
	out.count(load)
	e := loadStats(load, m)
	ops := float64(load.ops())
	m["proc.allocs_per_op"] = plain(float64(after.Mallocs-before.Mallocs) / ops)
	m["proc.alloc_kb_per_op"] = plain(float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops)
	m["proc.gc_cycles"] = plain(float64(after.NumGC - before.NumGC))
	spanned := load.settledUs(load.pick(ofKind(kSearchSpanned)))
	m["trace.overhead_share"] = plain((spanned.Value - e.p50.Value) / e.p50.Value)

	// The stages, from outside. A library workload keeps its own cycle
	// going, so searches still meet what its writes leave behind.
	one := loop{clients: 1, cycle: sp.cycle, raw: sp.http}
	stager, stageUnits, exactUnits := lib, 5, 3
	switch {
	case lib == nil:
		stageUnits, exactUnits = 2, 1
	case sp.cycle > 1:
		exactUnits = 2 // the last sixteenth replays the writes into a log
	}
	if stager == nil {
		stager = newLibWorkload(c, spec{name: sp.name, k: sp.k, nprobe: sp.nprobe, clients: 1, cycle: 1})
	}
	qid := []int{next[0]}
	stage := one.drive(unit*time.Duration(stageUnits), qid, stager.stageOp(tr, false))
	out.count(stage)
	exact := one.drive(unit*time.Duration(exactUnits), qid, stager.stageOp(tr, true))
	out.count(exact)
	rank, lut := tr.stageUs(stage, spRank), tr.stageUs(stage, spLUT)
	fast, pq := tr.stageUs(stage, spFastScan), tr.stageUs(exact, spPQScan)
	merge, facade := tr.stageUs(stage, spMerge), tr.stageUs(stage, spSearch)
	m["index.rank_us"], m["quantizer.lut_us"], m["topk.merge_us"] = rank, lut, merge
	m["scan.fast_us"], m["scan.pqscan_us"] = fast, pq
	m["scan.speedup_vs_pqscan"] = plain(pq.Value / fast.Value)
	sameWork := load.settledUs(load.pick(func(s sample) bool { return s.kind == kSearch && s.key < stagePool }))
	m["scan.share_of_p50"] = plain(fast.Value / sameWork.Value)
	m["pqfastscan.facade_self_us"] = plain(facade.Value - (rank.Value + lut.Value + fast.Value + merge.Value))
	ns := tr.perQuery(stage, spFastScan, spanNs)
	codes := tr.perQuery(stage, spFastScan, func(s span) float64 { return float64(s.codes) })
	scanned := tr.perQuery(stage, spFastScan, func(s span) float64 { return float64(s.bytes) })
	perCode, perByte := make([]sample, len(ns)), make([]sample, len(ns))
	for i := range ns {
		perCode[i] = sample{v: ns[i].v / codes[i].v, done: ns[i].done}
		perByte[i] = sample{v: ns[i].v / scanned[i].v, done: ns[i].done}
	}
	m["scan.ns_per_code"] = stage.settled(perCode)
	m["scan.gb_per_s"] = plain(1 / stage.settled(perByte).Value) // bytes per nanosecond

	if lib != nil && sp.cycle > 1 {
		m["index.add_us"], m["index.delete_us"] = tr.stageUs(load, spAdd), tr.stageUs(load, spDelete)
		first := load.settledUs(load.pick(func(s sample) bool { return s.kind == kSearch && s.fresh }))
		steady := load.settledUs(load.pick(func(s sample) bool { return s.kind == kSearch && !s.fresh }))
		m["index.search_after_add_us"] = plain(first.Value - steady.Value)
		if err := walReplay(c, lib, one, unit, tr, qid, out); err != nil {
			return err
		}
	}
	adds, deletes := 0, 0
	if lib != nil {
		adds, deletes = lib.adds, lib.deletes
	}
	m["index.ops_add"], m["index.ops_delete"] = plain(float64(adds)), plain(float64(deletes))
	dead, rows := 0, 0
	for _, ps := range c.idx.PartitionStats() {
		dead += ps.Dead
		rows += ps.Live + ps.Dead
	}
	m["index.dead_share_end"] = plain(float64(dead) / float64(rows))

	if hw != nil {
		d := srvAfter.minus(srvBefore)
		m["server.batch_width"] = plain(float64(d.batchQueries) / float64(d.batchCalls))
		m["server.shed_share"] = plain(float64(d.shed) / float64(d.requests))
		m["server.scan_cpu_share"] = plain((lut.Value + fast.Value) / e.cpu.Value)
		if hw.router != nil {
			m["cluster.subreq_per_query"] = plain(float64(d.subRequests) / float64(d.routed))
			checkRetries(d, out)
		}
		if err := servingLayers(c, hw, lp, one, unit, tr, qid, e, out); err != nil {
			return err
		}
	}
	for _, def := range perLayerDefs {
		if _, ok := m[def.Name]; !ok && def.on(cfg.workload) {
			return fmt.Errorf("traced run of %s measured no %s", cfg.workload, def.Name)
		}
	}
	return nil
}

// counters are the serving layers' own counts, read before and after a
// window.
type counters struct {
	batchCalls, batchQueries, shed, requests int64 // summed over the servers
	routed, subRequests, failovers, hedges   int64 // the router's
}

func (w *httpWorkload) counters() counters {
	var c counters
	for _, n := range w.nodes {
		if n.srv == nil {
			continue
		}
		st := n.srv.StatsSnapshot()
		c.batchCalls += st.Batch.Calls
		c.batchQueries += st.Batch.Queries
		c.shed += st.Admission.Shed
		c.requests += st.Endpoints["/search"].Requests
	}
	if w.router != nil {
		st := w.router.Stats()
		c.routed, c.failovers, c.hedges = st.Queries, st.Failovers+st.Retries, st.Hedges
		for _, sh := range st.Shards {
			c.subRequests += sh.Requests
		}
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		a.batchCalls - b.batchCalls, a.batchQueries - b.batchQueries, a.shed - b.shed, a.requests - b.requests,
		a.routed - b.routed, a.subRequests - b.subRequests, a.failovers - b.failovers, a.hedges - b.hedges,
	}
}

// maxRetryShare is the share of routed queries that may need a second
// attempt on a shard before the run fails. A stall of this machine costs
// a handful in ten thousand (an attempt times out after 25 ms); a router
// that times out or retries by its own doing does so on far more.
const maxRetryShare = 0.005

// checkRetries fails the run when the router retried, failed over or
// hedged more than a stalled host explains. What the few it allows cost
// is in qps like any other operation's time.
func checkRetries(d counters, out *outcome) {
	out.metrics["cluster.failovers"], out.metrics["cluster.hedges"] = plain(float64(d.failovers)), plain(float64(d.hedges))
	if again := d.failovers + d.hedges; float64(again) > maxRetryShare*float64(d.routed) {
		out.fail(fmt.Errorf("router made %d second attempts and hedges on %d queries, more than %.1f %%", again, d.routed, 100*maxRetryShare))
	}
}

// walReplay writes what the run wrote (one record per Add and per
// Delete, alternating) into a write-ahead log in a temporary directory,
// every append inside a span. Durable deployments pay this on top of
// index.add_us; no gated metric includes it.
func walReplay(c *corpus, w *libWorkload, one loop, unit time.Duration, tr *tracer, qid []int, out *outcome) error {
	dir, err := os.MkdirTemp("", "pqbenchmark-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Create(dir, 1, wal.Options{})
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	cells, codes, err := w.in.EncodeRoute(c.writes)
	if err != nil {
		log.Close()
		return fmt.Errorf("wal: %w", err)
	}
	pqm := w.in.PQ.M
	one.cycle = 1
	ph := one.drive(unit, qid, func(_, n int) (done, error) {
		i := (n / 2) % poolSize
		id := int64(c.rows + n/2)
		s := tr.begin(0, spWALAppend, -1, n, -1)
		var err error
		if n%2 == 0 {
			err = log.AppendAdd(cells[i:i+1], []int64{id}, codes[i*pqm:(i+1)*pqm], pqm)
		} else {
			err = log.AppendDelete(id)
		}
		tr.end(0, s)
		return done{kind: kStage, key: int32(n % 2)}, err
	})
	out.count(ph)
	st := log.Stats()
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	m := out.metrics
	m["wal.append_us"] = tr.stageUs(ph, spWALAppend)
	m["wal.bytes_per_op"] = plain(float64(st.Bytes) / float64(st.Records))
	m["wal.fsyncs_per_op"] = plain(float64(st.Fsyncs) / float64(st.Records))
	return nil
}

// servingLayers drives each serving layer alone, one request at a time
// unless said otherwise, every call inside a span.
func servingLayers(c *corpus, w *httpWorkload, lp, one loop, unit time.Duration, tr *tracer, qid []int, e e2eStats, out *outcome) error {
	m := out.metrics
	one.cycle = 1

	// The server under test: the search server itself, or, behind the
	// router, a server over every cell that is sent the sub-request shape
	// (explicit cells in the router's rank order).
	target := w.nodes[0]
	bodies := w.bodies
	if w.router != nil {
		direct, err := serve(server.Config{Index: c.idx})
		if err != nil {
			return err
		}
		defer direct.close()
		target = direct
		bodies = make([][]byte, poolSize)
		cells, dists := make([]int, partitions), make([]float32, partitions)
		for i := range bodies {
			q := c.pool.Row(i)
			probe := c.idx.Internal().RankCellsInto(q, cells, dists)[:w.sp.nprobe]
			bodies[i] = marshalSearch(q, w.sp.k, 0, probe)
		}

		// cluster.overhead_us: the same callers, the same queries, sent
		// straight to that server.
		next := make([]int, lp.clients)
		ph := lp.drive(2*unit, next, w.opTo(nil, direct.url+"/search", bodies))
		out.count(ph)
		m["cluster.overhead_us"] = plain(e.p50.Value - ph.settledUs(ph.pick(ofKind(kSearch))).Value)

		ctx := context.Background()
		opt := cluster.SearchOptions{K: w.sp.k, NProbe: w.sp.nprobe}
		ph = one.drive(unit, qid, func(_, n int) (done, error) {
			key := n % alonePool
			s := tr.begin(0, spRouterCall, -1, n, int32(key))
			resp, err := w.router.Search(ctx, c.pool.Row(key), opt)
			tr.end(0, s)
			if err == nil && len(resp.Results) != w.sp.k {
				err = fmt.Errorf("router returned %d neighbours, want %d", len(resp.Results), w.sp.k)
			}
			return done{kind: kStage, key: int32(key)}, err
		})
		out.count(ph)
		m["cluster.search_us"] = tr.stageUs(ph, spRouterCall)

		ph = one.drive(unit, qid, handlerOp(tr, spRouterHTTP, w.router.Handler(), w.bodies))
		out.count(ph)
		m["cluster.handler_us"] = tr.stageUs(ph, spRouterHTTP)
	}

	units := time.Duration(2)
	if w.router != nil {
		units = 1
	}
	ph := one.drive(units*unit, qid, handlerOp(tr, spHandler, target.srv.Handler(), bodies))
	out.count(ph)
	handler := tr.stageUs(ph, spHandler)

	twin, err := server.New(server.Config{Index: c.idx, BatchWindow: -1})
	if err != nil {
		return err
	}
	defer twin.Close()
	ph = one.drive(units*unit, qid, handlerOp(tr, spHandlerNow, twin.Handler(), bodies))
	out.count(ph)
	m["server.handler_us"] = handler
	m["server.window_wait_us"] = plain(handler.Value - tr.stageUs(ph, spHandlerNow).Value)
	m["server.http_us"] = plain(e.p50.Value - handler.Value)

	// The codec alone, on the run's real payloads: the requests the
	// callers post and the replies the library's answers marshal to.
	var replies []server.SearchResponse
	for i := 0; i < poolSize; i += checkEvery {
		r := server.SearchResponse{Partitions: make([]int, w.sp.nprobe)}
		for _, n := range w.expect[i] {
			r.Results = append(r.Results, server.SearchNeighbor{ID: n.ID, Distance: n.Distance})
		}
		replies = append(replies, r)
	}
	ph = one.drive(unit, qid, func(_, n int) (done, error) {
		var err error
		i := n % (2 * len(replies)) // decode and encode take turns
		key := i / 2
		if i%2 == 0 {
			var req server.SearchRequest
			s := tr.begin(0, spDecode, -1, n, int32(key))
			err = json.Unmarshal(w.bodies[key], &req)
			tr.end(0, s)
		} else {
			s := tr.begin(0, spEncode, -1, n, int32(key))
			_, err = json.Marshal(replies[key])
			tr.end(0, s)
		}
		return done{kind: kStage, key: int32(i)}, err
	})
	out.count(ph)
	m["server.decode_us"], m["server.encode_us"] = tr.stageUs(ph, spDecode), tr.stageUs(ph, spEncode)
	return nil
}

// alonePool is how much of the pool a layer driven alone goes round: its
// phases are short, and each entry still has to come up a dozen times.
const alonePool = 32

// handlerOp calls a handler's ServeHTTP with a recorder in place of a
// socket, inside a span.
func handlerOp(tr *tracer, name uint8, h http.Handler, bodies [][]byte) opFunc {
	return func(_, n int) (done, error) {
		key := n % alonePool
		req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(bodies[key]))
		rec := httptest.NewRecorder()
		s := tr.begin(0, name, -1, n, int32(key))
		h.ServeHTTP(rec, req)
		tr.end(0, s)
		if rec.Code != http.StatusOK {
			return done{kind: kStage, key: int32(key)}, fmt.Errorf("handler status %d: %.120s", rec.Code, rec.Body.Bytes())
		}
		return done{kind: kStage, key: int32(key)}, nil
	}
}

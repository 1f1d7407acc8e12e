// The router's own HTTP surface (cmd/pqrouter): the same /search,
// /healthz, /readyz and /stats contract a single pqserve exposes —
// clients cannot tell a router from a node — plus /swap, which here
// means a fleet-wide two-phase swap.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"pqfastscan/internal/hist"
	"pqfastscan/internal/index"
	"pqfastscan/internal/server"
)

// routerMetrics aggregates the router's counters.
type routerMetrics struct {
	start            time.Time
	queries          atomic.Int64
	errors           atomic.Int64
	rejected         atomic.Int64
	lat              hist.Hist
	failovers        atomic.Int64
	hedges           atomic.Int64
	retries          atomic.Int64
	partials         atomic.Int64
	swaps            atomic.Int64
	quarantines      atomic.Int64 // endpoints quarantined by the prober
	reinstatements   atomic.Int64 // endpoints reinstated by the prober
	breakerFastFails atomic.Int64 // attempts refused without network I/O
	deadlineRejects  atomic.Int64 // requests rejected already-expired
	ambiguous        atomic.Int64 // mutations failed with unknown outcome
}

func newRouterMetrics() *routerMetrics { return &routerMetrics{start: time.Now()} }

// ShardStats is one shard's row in /stats.
type ShardStats struct {
	Cells     string   `json:"cells"`
	Endpoints []string `json:"endpoints"`
	Requests  int64    `json:"requests"`
	P50Ms     float64  `json:"p50_ms"`
	P99Ms     float64  `json:"p99_ms"`
	Failovers int64    `json:"failovers"`
	Hedges    int64    `json:"hedges"`
	Retries   int64    `json:"retries"`
}

// EndpointStats is one endpoint's health row in /stats: breaker state,
// quarantine status, and the adaptive-timeout inputs.
type EndpointStats struct {
	Endpoint       string  `json:"endpoint"`
	Breaker        string  `json:"breaker"` // closed | open | half-open
	BreakerOpens   int64   `json:"breaker_opens"`
	Quarantined    bool    `json:"quarantined"`
	Quarantines    int64   `json:"quarantines"`
	Reinstatements int64   `json:"reinstatements"`
	LatencyEwmaMs  float64 `json:"latency_ewma_ms"`
	LatencySamples int64   `json:"latency_samples"`
}

// RouterStats is the /stats document of a router.
type RouterStats struct {
	UptimeS          float64         `json:"uptime_s"`
	Partitions       int             `json:"partitions"`
	Queries          int64           `json:"queries"`
	Errors           int64           `json:"errors"`
	Rejected         int64           `json:"rejected"`
	P50Ms            float64         `json:"p50_ms"`
	P99Ms            float64         `json:"p99_ms"`
	Failovers        int64           `json:"failovers"`
	Hedges           int64           `json:"hedges"`
	Retries          int64           `json:"retries"`
	Partials         int64           `json:"partials"`
	FleetSwaps       int64           `json:"fleet_swaps"`
	Quarantines      int64           `json:"quarantines"`
	Reinstatements   int64           `json:"reinstatements"`
	BreakerFastFails int64           `json:"breaker_fast_fails"`
	DeadlineRejects  int64           `json:"deadline_rejects"`
	AmbiguousFails   int64           `json:"ambiguous_mutations"`
	Shards           []ShardStats    `json:"shards"`
	Endpoints        []EndpointStats `json:"endpoints"`
}

// Stats assembles the current /stats document.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		UptimeS:          time.Since(r.metrics.start).Seconds(),
		Partitions:       r.Partitions(),
		Queries:          r.metrics.queries.Load(),
		Errors:           r.metrics.errors.Load(),
		Rejected:         r.metrics.rejected.Load(),
		P50Ms:            r.metrics.lat.QuantileMs(0.50),
		P99Ms:            r.metrics.lat.QuantileMs(0.99),
		Failovers:        r.metrics.failovers.Load(),
		Hedges:           r.metrics.hedges.Load(),
		Retries:          r.metrics.retries.Load(),
		Partials:         r.metrics.partials.Load(),
		FleetSwaps:       r.metrics.swaps.Load(),
		Quarantines:      r.metrics.quarantines.Load(),
		Reinstatements:   r.metrics.reinstatements.Load(),
		BreakerFastFails: r.metrics.breakerFastFails.Load(),
		DeadlineRejects:  r.metrics.deadlineRejects.Load(),
		AmbiguousFails:   r.metrics.ambiguous.Load(),
	}
	for _, sh := range r.shards {
		st.Shards = append(st.Shards, ShardStats{
			Cells:     fmt.Sprintf("%d-%d", sh.spec.Lo, sh.spec.Hi),
			Endpoints: sh.spec.Endpoints,
			Requests:  sh.requests.Count(),
			P50Ms:     sh.requests.QuantileMs(0.50),
			P99Ms:     sh.requests.QuantileMs(0.99),
			Failovers: sh.failovers.Load(),
			Hedges:    sh.hedges.Load(),
			Retries:   sh.retries.Load(),
		})
	}
	eps := make([]string, 0, len(r.endpoints))
	for ep := range r.endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		es := r.endpoints[ep]
		avg, n := es.latency.Load()
		st.Endpoints = append(st.Endpoints, EndpointStats{
			Endpoint:       ep,
			Breaker:        es.breaker.State().String(),
			BreakerOpens:   es.breaker.Opens(),
			Quarantined:    es.quarantined.Load(),
			Quarantines:    es.quarantines.Load(),
			Reinstatements: es.reinstatements.Load(),
			LatencyEwmaMs:  float64(avg) / 1e6,
			LatencySamples: n,
		})
	}
	return st
}

// BeginDrain flips /readyz to 503 so load balancers steer new traffic
// away while in-flight fanouts finish. The SIGTERM sequence of
// pqrouter: BeginDrain, http.Server.Shutdown, exit.
func (r *Router) BeginDrain() { r.draining.Store(true) }

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/search", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		start := time.Now()
		r.metrics.queries.Add(1)
		// A client deadline arrives as a relative millisecond budget under
		// a node's ceiling; already-expired work is rejected before any
		// fanout, and the remaining budget rides the context so every
		// sub-request forwards what is left of it.
		ctx, cancel, err := server.DeadlineContext(req)
		if err != nil {
			r.metrics.deadlineRejects.Add(1)
			server.WriteError(w, http.StatusGatewayTimeout, err.Error())
			return
		}
		defer cancel()
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		// Decoded and checked by the node's own decoder: a request a node
		// refuses is a 400 here too, before any fan-out.
		meta := r.meta.Load()
		sr, err := server.DecodeSearch(req.Body, req.URL.RawQuery, meta.dim, meta.partitions, r.cfg.MaxK)
		if err != nil {
			r.metrics.rejected.Add(1)
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		opt := SearchOptions{K: sr.K, NProbe: sr.NProbe, Cells: sr.Cells, Recall: sr.Recall}
		if sr.Kernel != index.KernelFastScan {
			opt.Kernel = sr.Kernel.String()
		}
		// ?partial=1 opts this query into degraded mode: shard failures
		// shrink coverage instead of failing the query.
		if p := req.URL.Query().Get("partial"); p == "1" || p == "true" {
			opt.AllowPartial = true
		}
		resp, err := r.Search(ctx, sr.Query, opt)
		if err != nil {
			// A blown client deadline is the client's budget running out
			// mid-fanout; anything else that failed in the fanout is the
			// fleet's.
			switch {
			case ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
				r.metrics.deadlineRejects.Add(1)
				server.WriteError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
			default:
				r.metrics.errors.Add(1)
				server.WriteError(w, http.StatusBadGateway, err.Error())
			}
			return
		}
		r.metrics.lat.Observe(time.Since(start))
		server.WriteSearchResponse(w, resp)
	})

	mux.HandleFunc("/add", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		ar, err := server.DecodeAdd(req.Body, r.Dim())
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		ids, err := r.Add(req.Context(), ar.Vectors)
		if err != nil {
			writeMutationError(w, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, server.AddResponse{IDs: ids})
	})

	mux.HandleFunc("/delete", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		dr, err := server.DecodeDelete(req.Body)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		deleted, err := r.Delete(req.Context(), dr.ID)
		if err != nil {
			writeMutationError(w, err)
			return
		}
		if !deleted {
			server.WriteError(w, http.StatusNotFound, fmt.Sprintf("id %d not found on any shard", dr.ID))
			return
		}
		server.WriteJSON(w, http.StatusOK, server.DeleteResponse{Deleted: true})
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"role":     "router",
			"shards":   len(r.shards),
			"uptime_s": time.Since(r.metrics.start).Seconds(),
		})
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		if r.draining.Load() {
			server.WriteError(w, http.StatusServiceUnavailable, "draining: shutdown in progress")
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, http.StatusOK, r.Stats())
	})

	mux.HandleFunc("/swap", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		sr, err := server.DecodeSwap(req.Body)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		result, err := r.SwapAll(req.Context(), sr.Path)
		if err != nil {
			status := http.StatusBadGateway
			if result == nil {
				status = http.StatusBadRequest
			}
			server.WriteJSON(w, status, map[string]any{"error": err.Error(), "detail": result})
			return
		}
		server.WriteJSON(w, http.StatusOK, result)
	})

	return mux
}

// writeMutationError maps a mutation failure: an Add the fleet refuses
// (ErrAddNeedsOneShard) to 501, an ambiguous outcome to 502 with an
// explicit "outcome": "unknown" field (the one thing a client must not
// interpret as "not applied"), a shard's own error status to that
// status, and everything else to 502.
func writeMutationError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrAddNeedsOneShard) {
		server.WriteError(w, http.StatusNotImplemented, err.Error())
		return
	}
	var ae *AmbiguousError
	if errors.As(err, &ae) {
		server.WriteJSON(w, http.StatusBadGateway, map[string]string{
			"error":   err.Error(),
			"outcome": "unknown",
		})
		return
	}
	var he *httpStatusError
	if errors.As(err, &he) {
		server.WriteError(w, he.status, err.Error())
		return
	}
	server.WriteError(w, http.StatusBadGateway, err.Error())
}

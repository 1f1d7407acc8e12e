// The router's own HTTP surface (cmd/pqrouter): the same /search,
// /healthz, /readyz and /stats contract a single pqserve exposes —
// clients cannot tell a router from a node — plus /swap, which here
// means a fleet-wide two-phase swap.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pqfastscan/internal/hist"
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
			httpError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		start := time.Now()
		r.metrics.queries.Add(1)
		// A client deadline arrives as a relative millisecond budget;
		// already-expired work is rejected before any fanout, and the
		// remaining budget rides the context so every sub-request
		// forwards what is left of it.
		ctx, cancel, err := withDeadlineBudget(req)
		if err != nil {
			r.metrics.deadlineRejects.Add(1)
			httpError(w, http.StatusGatewayTimeout, err.Error())
			return
		}
		defer cancel()
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		// Decoded as a node decodes it: a key no node knows ("backend",
		// a typo) is a 400 here too, not silently dropped.
		var sr server.SearchRequest
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sr); err != nil {
			r.metrics.rejected.Add(1)
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		// ?partial=1 opts this query into degraded mode: shard failures
		// shrink coverage instead of failing the query. ?recall= means
		// what it means on a single pqserve.
		q := req.URL.Query()
		partial := q.Get("partial")
		recall := 0.0
		if v := q.Get("recall"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			// The affirmative range check also rejects NaN.
			if err != nil || !(f > 0 && f <= 1) {
				r.metrics.rejected.Add(1)
				httpError(w, http.StatusBadRequest, fmt.Sprintf("recall must be a number in (0,1], got %q", v))
				return
			}
			recall = f
		}
		resp, err := r.Search(ctx, sr.Query, SearchOptions{
			K: sr.K, NProbe: sr.NProbe, Cells: sr.Cells, Kernel: sr.Kernel, Recall: recall,
			AllowPartial: partial == "1" || partial == "true",
		})
		if err != nil {
			// Validation failures are the client's; a blown client
			// deadline is the client's budget running out mid-fanout;
			// anything else that failed in the fanout is the fleet's.
			var ve *validationError
			switch {
			case errors.As(err, &ve):
				r.metrics.rejected.Add(1)
				httpError(w, http.StatusBadRequest, err.Error())
			case ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
				r.metrics.deadlineRejects.Add(1)
				httpError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
			default:
				r.metrics.errors.Add(1)
				httpError(w, http.StatusBadGateway, err.Error())
			}
			return
		}
		r.metrics.lat.Observe(time.Since(start))
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("/add", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		var ar server.AddRequest
		if err := json.NewDecoder(req.Body).Decode(&ar); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		ids, err := r.Add(req.Context(), ar.Vectors)
		if err != nil {
			writeMutationError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, server.AddResponse{IDs: ids})
	})

	mux.HandleFunc("/delete", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		var dr server.DeleteRequest
		if err := json.NewDecoder(req.Body).Decode(&dr); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		deleted, err := r.Delete(req.Context(), dr.ID)
		if err != nil {
			writeMutationError(w, err)
			return
		}
		if !deleted {
			httpError(w, http.StatusNotFound, fmt.Sprintf("id %d not found on any shard", dr.ID))
			return
		}
		writeJSON(w, http.StatusOK, server.DeleteResponse{Deleted: true})
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"role":     "router",
			"shards":   len(r.shards),
			"uptime_s": time.Since(r.metrics.start).Seconds(),
		})
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		if r.draining.Load() {
			httpError(w, http.StatusServiceUnavailable, "draining: shutdown in progress")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Stats())
	})

	mux.HandleFunc("/swap", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		var sr server.SwapRequest
		if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		result, err := r.SwapAll(req.Context(), sr.Path)
		if err != nil {
			status := http.StatusBadGateway
			if result == nil {
				status = http.StatusBadRequest
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "detail": result})
			return
		}
		writeJSON(w, http.StatusOK, result)
	})

	return mux
}

// withDeadlineBudget applies a client's X-Pq-Deadline-Ms header (a
// relative millisecond budget) to the request context. A missing
// header leaves the context untouched; a malformed or already-spent
// budget returns an error the caller maps to 504.
func withDeadlineBudget(req *http.Request) (context.Context, context.CancelFunc, error) {
	v := req.Header.Get(server.DeadlineHeader)
	if v == "" {
		return req.Context(), func() {}, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return nil, nil, fmt.Errorf("bad %s header %q", server.DeadlineHeader, v)
	}
	if ms <= 0 {
		return nil, nil, fmt.Errorf("deadline already expired (%s: %d)", server.DeadlineHeader, ms)
	}
	ctx, cancel := context.WithTimeout(req.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// writeMutationError maps a mutation failure: validation to 400, an
// ambiguous outcome to 502 with an explicit "outcome": "unknown" field
// (the one thing a client must not interpret as "not applied"), and
// everything else to 502.
func writeMutationError(w http.ResponseWriter, err error) {
	var ve *validationError
	if errors.As(err, &ve) {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var ae *AmbiguousError
	if errors.As(err, &ae) {
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error":   err.Error(),
			"outcome": "unknown",
		})
		return
	}
	var he *httpStatusError
	if errors.As(err, &he) {
		httpError(w, he.status, err.Error())
		return
	}
	httpError(w, http.StatusBadGateway, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pqfastscan"
	"pqfastscan/internal/server"
)

// Served-throughput benchmarking: where wallclock.go measures the raw
// kernels, this driver measures the whole serving stack — HTTP framing,
// batching, admission control, the engine's batch loop — as a
// client population would see it, reporting QPS and latency quantiles as
// JSON (cmd/pqbench -serve). It can drive an external pqserve (URL mode)
// or self-host an in-process server over a synthetic index so a
// BENCH_*.json baseline is reproducible from a single command.

// ServeConfig parameterizes a load-generation run.
type ServeConfig struct {
	// URL points at a running pqserve. Empty self-hosts an in-process
	// server over a synthetic index.
	URL string

	// Self-host parameters (URL == "").
	BaseN      int // database size (default 100000)
	LearnN     int // training size (default BaseN/10, min 1000)
	Partitions int // IVF cells (default 8)
	MaxBatch   int // widest coalesced batch (default 64)

	// Load shape.
	Seed        uint64        // query generation seed (default 42)
	K           int           // neighbors per query (default 100)
	NProbe      int           // cells probed per query (default 1)
	Concurrency int           // concurrent client connections (default 16)
	Duration    time.Duration // measurement window (default 5s)
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.BaseN <= 0 {
		c.BaseN = 100000
	}
	if c.LearnN <= 0 {
		c.LearnN = c.BaseN / 10
		if c.LearnN < 1000 {
			c.LearnN = 1000
		}
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K <= 0 {
		c.K = 100
	}
	if c.NProbe <= 0 {
		c.NProbe = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	return c
}

// ServeReport is the JSON document of one load-generation run.
type ServeReport struct {
	Schema      string  `json:"schema"`
	URL         string  `json:"url,omitempty"`
	SelfHosted  bool    `json:"self_hosted"`
	BaseN       int     `json:"base_n,omitempty"` // self-hosted only
	Concurrency int     `json:"concurrency"`
	K           int     `json:"k"`
	NProbe      int     `json:"nprobe"`
	DurationS   float64 `json:"duration_s"`

	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Shed     int64   `json:"shed"` // 429 rejections
	Errors   int64   `json:"errors"`
	QPS      float64 `json:"qps"` // successful responses per second

	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// Micro-batching effectiveness, read from the server's /stats.
	BatchCalls    int64   `json:"batch_calls,omitempty"`
	BatchQueries  int64   `json:"batch_queries,omitempty"`
	AvgBatchWidth float64 `json:"avg_batch_width,omitempty"`
	MaxBatchWidth int64   `json:"max_batch_width,omitempty"`
}

// MeasureServe runs one load-generation pass and returns its report.
func MeasureServe(cfg ServeConfig) (*ServeReport, error) {
	cfg = cfg.withDefaults()
	url := cfg.URL
	report := &ServeReport{
		Schema:      "pqfastscan-serve/v1",
		URL:         cfg.URL,
		SelfHosted:  cfg.URL == "",
		Concurrency: cfg.Concurrency,
		K:           cfg.K,
		NProbe:      cfg.NProbe,
	}

	var statsBefore server.Stats
	var srv *server.Server
	if url == "" {
		report.BaseN = cfg.BaseN
		gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: cfg.Seed})
		opt := pqfastscan.DefaultBuildOptions()
		opt.Partitions = cfg.Partitions
		opt.Seed = cfg.Seed
		idx, err := pqfastscan.Build(gen.Generate(cfg.LearnN), gen.Generate(cfg.BaseN), opt)
		if err != nil {
			return nil, fmt.Errorf("bench: build serving index: %w", err)
		}
		srv, err = server.New(server.Config{
			Index:       idx,
			MaxBatch:    cfg.MaxBatch,
			MaxInFlight: 4 * cfg.Concurrency, // shedding off the measurement path
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		url = "http://" + ln.Addr().String()
		statsBefore = srv.StatsSnapshot()
	}

	// A disjoint pool of query vectors, cycled by the workers.
	bodies, err := searchBodies(cfg.Seed, cfg.K, cfg.NProbe)
	if err != nil {
		return nil, err
	}
	load := driveLoad(url, bodies, cfg.Concurrency, cfg.Duration)
	report.DurationS = load.DurationS
	report.Requests = load.Requests
	report.OK = load.OK
	report.Shed = load.Shed
	report.Errors = load.Errors
	report.QPS = load.QPS
	report.P50Ms = load.P50Ms
	report.P90Ms = load.P90Ms
	report.P99Ms = load.P99Ms
	report.MaxMs = load.MaxMs

	if srv != nil {
		after := srv.StatsSnapshot()
		report.BatchCalls = after.Batch.Calls - statsBefore.Batch.Calls
		report.BatchQueries = after.Batch.Queries - statsBefore.Batch.Queries
		if report.BatchCalls > 0 {
			report.AvgBatchWidth = float64(report.BatchQueries) / float64(report.BatchCalls)
		}
		report.MaxBatchWidth = after.Batch.MaxWidth
	}
	return report, nil
}

// RunServe measures served throughput and writes the report as JSON.
func RunServe(w io.Writer, cfg ServeConfig) error {
	report, err := MeasureServe(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// CombinedReport pairs the kernel wall-clock trajectory with the served
// throughput, the mixed read-write isolation numbers, the durability
// costs, the cluster scaling curve, the beyond-RAM cold-start sweep,
// and/or the self-healing chaos run of the same build — the document
// the BENCH_pr*.json baselines record (cmd/pqbench -json, -serve,
// -mixed, -durability, -shards, -coldstart, -chaos, in any
// combination). Schema is pqfastscan-bench/v9 (v8 predates the chaos
// section; v7 the planner section, which only BENCH_pr9.json carries —
// the sweep that wrote it is gone; v6 the coldstart section and the mem
// record; v5 the durability section; v4 the cluster section; v2/v3 the
// backend record in the kernels and mixed sections).
type CombinedReport struct {
	Schema     string            `json:"schema"`
	Kernels    *WallClockReport  `json:"kernels,omitempty"`
	Serve      *ServeReport      `json:"serve,omitempty"`
	Mixed      *MixedReport      `json:"mixed,omitempty"`
	Durability *DurabilityReport `json:"durability,omitempty"`
	Cluster    *ClusterReport    `json:"cluster,omitempty"`
	Coldstart  *ColdstartReport  `json:"coldstart,omitempty"`
	Chaos      *ChaosReport      `json:"chaos,omitempty"`
}

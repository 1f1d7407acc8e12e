package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pqfastscan"
	"pqfastscan/internal/cluster"
	"pqfastscan/internal/server"
)

// Cluster scaling benchmarking: build one synthetic index, stand up
// N in-process shards (each restricted to a contiguous IVF cell range)
// behind an internal/cluster router, and drive the shared load driver
// through the router for each shard count — the 1→2→4 scaling curve of
// scatter-gather serving (cmd/pqbench -shards, DESIGN.md §13). Before
// measuring each layout the bench replays a query sample through both
// the router and the single-node index and requires bit-identical
// answers, so a scaling number can never come from a wrong cluster.

// ClusterConfig parameterizes a cluster scaling run.
type ClusterConfig struct {
	BaseN      int    // database size (default 100000)
	LearnN     int    // training size (default BaseN/10, min 1000)
	Partitions int    // IVF cells (default 8)
	Seed       uint64 // build and query seed (default 42)

	// Load shape, applied to every shard count.
	K           int           // neighbors per query (default 100)
	NProbe      int           // cells probed per query (default 2)
	Concurrency int           // concurrent client connections (default 16)
	Duration    time.Duration // measurement window per shard count (default 3s)

	// Shard counts to measure, each ≤ Partitions (default 1, 2, 4).
	Shards []int

	// Per-shard server tuning (as in ServeConfig).
	MaxBatch int // widest coalesced batch (default 64)
}

func (c ClusterConfig) withDefaults() ClusterConfig {
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
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K <= 0 {
		c.K = 100
	}
	if c.NProbe <= 0 {
		c.NProbe = 2
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// ClusterPoint is one shard count's measurement.
type ClusterPoint struct {
	Shards    int     `json:"shards"`
	DurationS float64 `json:"duration_s"`

	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Shed     int64   `json:"shed"`
	Errors   int64   `json:"errors"`
	QPS      float64 `json:"qps"`

	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// Router-side counters over the window (expected zero with healthy
	// in-process shards; nonzero flags a sick layout).
	Failovers int64 `json:"failovers"`
	Hedges    int64 `json:"hedges"`

	// QPS relative to this run's 1-shard point (0 when 1 isn't measured).
	SpeedupVs1 float64 `json:"speedup_vs_1shard,omitempty"`
}

// ClusterReport is the JSON document of one cluster scaling run.
type ClusterReport struct {
	Schema      string `json:"schema"`
	BaseN       int    `json:"base_n"`
	Partitions  int    `json:"partitions"`
	K           int    `json:"k"`
	NProbe      int    `json:"nprobe"`
	Concurrency int    `json:"concurrency"`

	// OracleQueries router answers were verified bit-identical to the
	// single-node index, per layout, before its window was measured.
	OracleQueries int  `json:"oracle_queries"`
	OracleOK      bool `json:"oracle_ok"`

	Points []ClusterPoint `json:"points"`
}

// splitRanges tiles partitions cells into n contiguous shard ranges as
// evenly as possible (the first partitions%n shards get one extra).
func splitRanges(partitions, n int) []cluster.ShardSpec {
	specs := make([]cluster.ShardSpec, 0, n)
	base, rem := partitions/n, partitions%n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		specs = append(specs, cluster.ShardSpec{Lo: lo, Hi: lo + size - 1})
		lo += size
	}
	return specs
}

// startHTTP serves h on a loopback listener and returns its URL and a
// shutdown func.
func startHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// MeasureCluster runs the scaling sweep and returns its report.
func MeasureCluster(cfg ClusterConfig) (*ClusterReport, error) {
	cfg = cfg.withDefaults()
	for _, n := range cfg.Shards {
		if n < 1 || n > cfg.Partitions {
			return nil, fmt.Errorf("bench: shard count %d out of range [1,%d partitions]", n, cfg.Partitions)
		}
	}
	report := &ClusterReport{
		Schema:      "pqfastscan-cluster/v1",
		BaseN:       cfg.BaseN,
		Partitions:  cfg.Partitions,
		K:           cfg.K,
		NProbe:      cfg.NProbe,
		Concurrency: cfg.Concurrency,
	}

	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: cfg.Seed})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = cfg.Partitions
	opt.Seed = cfg.Seed
	full, err := pqfastscan.Build(gen.Generate(cfg.LearnN), gen.Generate(cfg.BaseN), opt)
	if err != nil {
		return nil, fmt.Errorf("bench: build cluster index: %w", err)
	}

	// The oracle sample and the load bodies come from the same query
	// stream the serve bench uses (seed+1: disjoint from the base set).
	oracle := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: cfg.Seed + 1}).Generate(16)
	report.OracleQueries = oracle.Rows()
	bodies, err := searchBodies(cfg.Seed, cfg.K, cfg.NProbe)
	if err != nil {
		return nil, err
	}

	for _, n := range cfg.Shards {
		point, err := measureLayout(cfg, full, oracle, bodies, n)
		if err != nil {
			return nil, fmt.Errorf("bench: %d-shard layout: %w", n, err)
		}
		report.Points = append(report.Points, *point)
	}
	report.OracleOK = true // measureLayout fails hard on any mismatch

	for i := range report.Points {
		p := &report.Points[i]
		if base := report.Points[0]; base.Shards == 1 && base.QPS > 0 {
			p.SpeedupVs1 = p.QPS / base.QPS
		}
	}
	return report, nil
}

// measureLayout stands one n-shard cluster up, proves it answers like
// the single node, and measures one load window through its router.
func measureLayout(cfg ClusterConfig, full *pqfastscan.Index, oracle pqfastscan.Matrix, bodies [][]byte, n int) (*ClusterPoint, error) {
	specs := splitRanges(cfg.Partitions, n)
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	for i := range specs {
		cells := specs[i].Cells()
		restricted, err := full.RestrictCells(cells...)
		if err != nil {
			return nil, err
		}
		srv, err := server.New(server.Config{
			Index:       restricted,
			Cells:       cells,
			MaxBatch:    cfg.MaxBatch,
			MaxInFlight: 4 * cfg.Concurrency,
		})
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() { _ = srv.Close() })
		url, stop, err := startHTTP(srv.Handler())
		if err != nil {
			return nil, err
		}
		stops = append(stops, stop)
		specs[i].Endpoints = []string{url}
	}

	router, err := cluster.New(cluster.Config{Shards: specs})
	if err != nil {
		return nil, err
	}
	routerURL, stopRouter, err := startHTTP(router.Handler())
	if err != nil {
		return nil, err
	}
	stops = append(stops, stopRouter)

	// Oracle gate: the router must answer exactly like the single node
	// before its throughput means anything.
	ctx := context.Background()
	for qi := 0; qi < oracle.Rows(); qi++ {
		q := oracle.Row(qi)
		want, err := full.Search(ctx, q, cfg.K, pqfastscan.WithNProbe(cfg.NProbe))
		if err != nil {
			return nil, err
		}
		got, err := router.Search(ctx, q, cluster.SearchOptions{K: cfg.K, NProbe: cfg.NProbe})
		if err != nil {
			return nil, err
		}
		if len(got.Results) != len(want.Results) {
			return nil, fmt.Errorf("oracle query %d: router returned %d results, single node %d",
				qi, len(got.Results), len(want.Results))
		}
		for i, w := range want.Results {
			g := got.Results[i]
			if g.ID != w.ID || g.Distance != w.Distance {
				return nil, fmt.Errorf("oracle query %d rank %d: router (%d, %g) != single node (%d, %g)",
					qi, i, g.ID, g.Distance, w.ID, w.Distance)
			}
		}
	}

	load := driveLoad(routerURL, bodies, cfg.Concurrency, cfg.Duration)
	stats := router.Stats()
	return &ClusterPoint{
		Shards:    n,
		DurationS: load.DurationS,
		Requests:  load.Requests,
		OK:        load.OK,
		Shed:      load.Shed,
		Errors:    load.Errors,
		QPS:       load.QPS,
		P50Ms:     load.P50Ms,
		P90Ms:     load.P90Ms,
		P99Ms:     load.P99Ms,
		MaxMs:     load.MaxMs,
		Failovers: stats.Failovers,
		Hedges:    stats.Hedges,
	}, nil
}

// RunCluster measures the scaling sweep and writes the report as JSON.
func RunCluster(w io.Writer, cfg ClusterConfig) error {
	report, err := MeasureCluster(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

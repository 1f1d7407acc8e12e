package server

import (
	"runtime"
	"sync/atomic"
	"time"

	"pqfastscan"
	"pqfastscan/internal/hist"
)

// Observability is lock-free: every counter is an atomic, so recording a
// sample from a request goroutine never contends with another request or
// with a /stats read. Latencies go into the shared geometric histograms
// of internal/hist (1µs doubling buckets, quantile error bounded by one
// bucket width — the right fidelity for p50/p99 dashboards at zero
// steady-state allocation).

// endpointMetrics aggregates one HTTP endpoint.
type endpointMetrics struct {
	requests atomic.Int64 // all requests, including rejected ones
	errors   atomic.Int64 // responses with status >= 500
	rejected atomic.Int64 // responses with status in [400, 500)
	lat      hist.Hist
}

// EndpointStats is the /stats projection of one endpoint.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Rejected int64   `json:"rejected"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
}

func (m *endpointMetrics) stats() EndpointStats {
	return EndpointStats{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Rejected: m.rejected.Load(),
		P50Ms:    m.lat.QuantileMs(0.50),
		P99Ms:    m.lat.QuantileMs(0.99),
		MeanMs:   m.lat.MeanMs(),
		MaxMs:    m.lat.MaxMs(),
	}
}

// metrics is the server-wide metric registry.
type metrics struct {
	start time.Time

	endpoints map[string]*endpointMetrics

	// The core gate.
	searches  atomic.Int64 // searches that took a core
	queueWait hist.Hist    // per search: time it waited for that core

	// Admission control.
	shed            atomic.Int64 // requests rejected 429 by admission control
	deadlineRejects atomic.Int64 // requests answered 504: budget spent before the answer

	// Snapshot lifecycle.
	swaps      atomic.Int64
	saves      atomic.Int64
	saveErrors atomic.Int64
	lastSave   atomic.Int64 // unix seconds, 0 = never

	// Online compaction.
	compactions      atomic.Int64 // partitions compacted
	compactReclaimed atomic.Int64 // tombstoned rows reclaimed
	compactErrors    atomic.Int64
	lastCompact      atomic.Int64 // unix seconds, 0 = never
}

func newMetrics(endpoints []string) *metrics {
	m := &metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics, len(endpoints))}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{}
	}
	return m
}

// BatchStats is the /stats "batch" section: what is left of it now that
// a /search is one Search, kept under its old name and keys for the
// standing benchmark (ROADMAP item 1f).
type BatchStats struct {
	// Deprecated: Calls and Queries both count the searches that took a
	// core — the benchmark divides one by the other (server.batch_width),
	// which therefore reads 1.
	Calls   int64 `json:"calls"`
	Queries int64 `json:"queries"`
	// QueueWaitUs is how long a search waited for a core: zero for every
	// request that found one free, so it reads ≈ 0 on a server with
	// headroom and grows only under more callers than cores.
	//
	// Deprecated: as a key of "batch" — the number stays and moves out
	// when the section goes.
	QueueWaitUs QueueWaitStats `json:"queue_wait_us"`
}

// QueueWaitStats carries the core-wait quantiles in microseconds.
type QueueWaitStats struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

func (m *metrics) batchStats() BatchStats {
	n := m.searches.Load()
	return BatchStats{
		Calls:   n,
		Queries: n,
		QueueWaitUs: QueueWaitStats{
			P50: m.queueWait.QuantileMs(0.50) * 1e3,
			P99: m.queueWait.QuantileMs(0.99) * 1e3,
		},
	}
}

// Stats is the full /stats document.
type Stats struct {
	UptimeS float64 `json:"uptime_s"`
	// Backend is the active Fast Scan block-kernel backend
	// (asm-avx2, asm-neon or swar) and CPUFeatures the SIMD feature set
	// detection saw — on /stats so fleet dashboards can spot hosts that
	// silently fell back to the portable path.
	Backend     string   `json:"backend"`
	CPUFeatures []string `json:"cpu_features,omitempty"`
	Live        int      `json:"live"`
	// Partitions is the total row count per cell (live + tombstoned),
	// kept for dashboard compatibility; PartitionStats carries the
	// occupancy breakdown.
	Partitions []int `json:"partitions"`
	// PartitionStats reports, per cell, the live and tombstoned row
	// counts, the dead ratio the compaction policy acts on, and the
	// epoch number of the currently published partition version.
	PartitionStats []pqfastscan.PartitionStat `json:"partition_stats"`
	Endpoints      map[string]EndpointStats   `json:"endpoints"`
	Batch          BatchStats                 `json:"batch"`
	Admission      AdmissionStats             `json:"admission"`
	Snapshot       SnapshotStats              `json:"snapshot"`
	Compaction     CompactionStats            `json:"compaction"`
	// WAL is present only when the server runs durably (-wal-dir): log
	// size, record count and fsync latency quantiles.
	WAL *pqfastscan.WALStats `json:"wal,omitempty"`
	// BufPool is present only when the server pages partition data from
	// a disk store (-store-dir): the extent footprint on disk and the
	// buffer pool's hit/miss/eviction counters with resident and pinned
	// bytes — the numbers that show whether the working set fits.
	BufPool *pqfastscan.StoreStats `json:"bufpool,omitempty"`
	// Mem reports Go runtime memory, the cross-check for paged serving:
	// heap in use should track pool capacity plus index metadata, not
	// the full extent footprint.
	Mem MemStats `json:"mem"`
}

// MemStats is the /stats projection of runtime.MemStats.
type MemStats struct {
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

// readMemStats samples the Go runtime. ReadMemStats stops the world
// briefly; /stats polling cadence (seconds) makes that negligible.
func readMemStats() MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemStats{
		HeapInuseBytes: ms.HeapInuse,
		HeapAllocBytes: ms.HeapAlloc,
		SysBytes:       ms.Sys,
		NumGC:          ms.NumGC,
	}
}

// CompactionStats is the /stats projection of online compaction.
type CompactionStats struct {
	Threshold       float64 `json:"threshold"`
	Runs            int64   `json:"runs"`      // partitions compacted
	Reclaimed       int64   `json:"reclaimed"` // tombstoned rows removed
	Errors          int64   `json:"errors"`
	LastCompactUnix int64   `json:"last_compact_unix"`
}

// AdmissionStats is the /stats projection of admission control.
type AdmissionStats struct {
	MaxInFlight  int    `json:"max_in_flight"`
	InFlight     int    `json:"in_flight"`
	Shed         int64  `json:"shed"`
	QueueTimeout string `json:"queue_timeout"`
	// DeadlineRejects counts requests answered 504 because their
	// forwarded deadline budget was spent before they were answered — at
	// the door, waiting for admission or for a core, or (multi-probe)
	// between partition scans.
	DeadlineRejects int64 `json:"deadline_rejects"`
}

// SnapshotStats is the /stats projection of the snapshot lifecycle.
type SnapshotStats struct {
	Swaps        int64  `json:"swaps"`
	Saves        int64  `json:"saves"`
	SaveErrors   int64  `json:"save_errors"`
	LastSaveUnix int64  `json:"last_save_unix"`
	Path         string `json:"path,omitempty"`
}

package main

// The benchmark's tables. BENCHMARK.json at the repository root states
// the same names, units, directions and bounds for the driver; the smoke
// test fails when the two disagree.

// metricDef declares one metric the benchmark emits.
type metricDef struct {
	Name   string
	Unit   string
	Better string   // "higher" or "lower"
	Bound  float64  // end-to-end only: share of the median it may worsen by
	Only   []string // per-layer only: the workloads whose path holds the layer; nil for all
}

// on reports whether the metric's layer is on the workload's path.
func (d metricDef) on(workload string) bool {
	if d.Only == nil {
		return true
	}
	for _, w := range d.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// offPath is what the result object says for a per-layer metric whose
// layer is not on the workload's path. The driver wants every name from
// every traced run; no metric here can measure -1, so it cannot be taken
// for a measurement. The printed lines and -out leave such metrics out.
const offPath = -1

var (
	mixedOnly  = []string{"lib_mixed"}
	servedOnly = []string{"serve_search", "router_search"}
	routerOnly = []string{"router_search"}
)

// workloadDef declares one workload.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"lib_scanall", "1 caller, Search k=10 over all 4 partitions (400k codes): strong pruning, so block kernel, grouped layout and pruning dominate; overhead-only changes must not move it"},
	{"lib_mixed", "1 caller, fixed cycle of 8 Search k=100 nprobe=1, 2 Add, 2 Delete: copy-on-write clone and repack per Add, fresh epoch per Search, weak pruning; p50_us is Search only, qps counts all"},
	{"serve_search", "2 HTTP callers POST /search k=100 nprobe=1 to an in-process server: JSON, admission and the 1 ms batch window dominate, the kernel is under a fifth of latency; cpu_us_per_op is the claimable metric"},
	{"router_search", "2 HTTP callers through cluster.Router over 2 in-process shards, k=100 nprobe=2: rank at the router, per-shard re-marshal, fan-out, MergeResults; the only workload where internal/cluster works"},
}

var endToEndDefs = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "recall_at_k", Unit: "share", Better: "higher", Bound: 0.005},
	{Name: "heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerDefs lists every per-layer metric of the traced run.
var perLayerDefs = []metricDef{
	{Name: "dataset.gen_s", Unit: "s", Better: "lower"},
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.warm_s", Unit: "s", Better: "lower"},
	{Name: "index.rank_us", Unit: "us", Better: "lower"},
	{Name: "quantizer.lut_us", Unit: "us", Better: "lower"},
	{Name: "scan.fast_us", Unit: "us", Better: "lower"},
	{Name: "scan.ns_per_code", Unit: "ns", Better: "lower"},
	{Name: "scan.pqscan_us", Unit: "us", Better: "lower"},
	{Name: "scan.speedup_vs_pqscan", Unit: "ratio", Better: "higher"},
	{Name: "scan.pruned_share", Unit: "share", Better: "higher"},
	{Name: "scan.gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "mem.copy_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "scan.share_of_p50", Unit: "share", Better: "higher"},
	{Name: "topk.merge_us", Unit: "us", Better: "lower"},
	{Name: "pqfastscan.facade_self_us", Unit: "us", Better: "lower"},
	{Name: "index.add_us", Unit: "us", Better: "lower", Only: mixedOnly},
	{Name: "index.delete_us", Unit: "us", Better: "lower", Only: mixedOnly},
	{Name: "index.search_after_add_us", Unit: "us", Better: "lower", Only: mixedOnly},
	{Name: "index.dead_share_end", Unit: "share", Better: "lower"},
	{Name: "index.ops_add", Unit: "count", Better: "higher"},
	{Name: "index.ops_delete", Unit: "count", Better: "higher"},
	{Name: "wal.append_us", Unit: "us", Better: "lower", Only: mixedOnly},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower", Only: mixedOnly},
	{Name: "wal.fsyncs_per_op", Unit: "count", Better: "lower", Only: mixedOnly},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "server.decode_us", Unit: "us", Better: "lower", Only: servedOnly},
	{Name: "server.encode_us", Unit: "us", Better: "lower", Only: servedOnly},
	{Name: "server.handler_us", Unit: "us", Better: "lower", Only: servedOnly},
	{Name: "server.window_wait_us", Unit: "us", Better: "lower", Only: servedOnly},
	{Name: "server.http_us", Unit: "us", Better: "lower", Only: servedOnly},
	{Name: "server.batch_width", Unit: "count", Better: "higher", Only: servedOnly},
	{Name: "server.shed_share", Unit: "share", Better: "lower", Only: servedOnly},
	{Name: "server.scan_cpu_share", Unit: "share", Better: "higher", Only: servedOnly},
	{Name: "cluster.search_us", Unit: "us", Better: "lower", Only: routerOnly},
	{Name: "cluster.handler_us", Unit: "us", Better: "lower", Only: routerOnly},
	{Name: "cluster.overhead_us", Unit: "us", Better: "lower", Only: routerOnly},
	{Name: "cluster.subreq_per_query", Unit: "count", Better: "lower", Only: routerOnly},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Only: routerOnly},
	{Name: "cluster.hedges", Unit: "count", Better: "lower", Only: routerOnly},
	{Name: "load.mean_qps", Unit: "1/s", Better: "higher"},
	{Name: "load.p99_us", Unit: "us", Better: "lower"},
	{Name: "load.quiet_share", Unit: "share", Better: "higher"},
	{Name: "load.slices", Unit: "count", Better: "higher"},
	{Name: "load.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "load.cpu_raw_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

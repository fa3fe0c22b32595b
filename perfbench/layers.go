package main

// metricDef names one reported metric. For a per-layer metric, moves,
// on and flat record the design: which end-to-end metric a change to
// that layer should move, on which workloads, and where it should stay
// flat. BENCHMARK.json lists the same names, units and directions;
// TestBenchmarkJSONMatchesMetrics keeps the two in step.
type metricDef struct {
	name, unit, better string
	moves, on, flat    string
}

// endToEnd are measured on untraced runs of the built binaries
// (--trace 0). Every workload reports all of them.
var endToEnd = []metricDef{
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "run_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

const (
	serveW  = "serve-overloaded"
	httpW   = "http-underloaded"
	batchW  = "batch-backfill"
	table2W = "table2-train"
	jobWs   = serveW + ", " + httpW + ", " + batchW
)

// perLayer are measured on the traced in-process run (--trace 1). A
// layer that a workload does not reach reports 0 there.
//
// BENCHMARK.json lists serve-overloaded and table2-train, which between
// them reach every layer. http-underloaded and batch-backfill stay
// runnable with --workload but are not listed: on a small shared host
// their run-to-run spread came close to the end-to-end bounds.
var perLayer = []metricDef{
	{"job.decode_s", "s", "lower", "jobs_per_s", serveW, batchW},
	{"api.submit_s", "s", "lower", "jobs_per_s", httpW + ", " + serveW, batchW},
	{"api.requests", "count", "higher", "jobs_per_s", httpW, jobWs},
	{"core.self_s", "s", "lower", "jobs_per_s, cpu_s", serveW + ", " + batchW, httpW},
	{"core.drain_s", "s", "lower", "jobs_per_s", jobWs, table2W},
	{"core.queue_depth_mean", "jobs", "lower", "none (workload property behind core.self_s)", serveW, httpW},
	{"core.queue_depth_max", "jobs", "lower", "none (workload property behind core.self_s)", serveW, httpW},
	{"core.queued_share", "ratio", "lower", "none (workload property behind core.self_s)", serveW, httpW},
	{"policy.allocate_calls", "count", "lower", "jobs_per_s", batchW, serveW + ", " + httpW},
	{"policy.calls_per_job", "calls/job", "lower", "jobs_per_s", batchW, serveW + ", " + httpW},
	{"policy.allocate_s", "s", "lower", "jobs_per_s", batchW, serveW + ", " + httpW},
	{"policy.placed_frac", "ratio", "higher", "jobs_per_s", batchW, serveW + ", " + httpW},
	{"records.log_s", "s", "lower", "jobs_per_s, peak_rss_mb", serveW + ", " + httpW, batchW},
	{"records.index_s", "s", "lower", "jobs_per_s, peak_rss_mb", serveW + ", " + httpW, batchW},
	{"records.export_s", "s", "lower", "jobs_per_s", jobWs, table2W},
	{"records.export_bytes", "bytes", "lower", "jobs_per_s", jobWs, table2W},
	{"rlsched.train_s", "s", "lower", "run_s, setup_s wherever a model is trained", table2W, jobWs},
	{"rl.steps_per_s", "1/s", "higher", "run_s", table2W, jobWs},
	{"experiments.simulate_s.speed", "s", "lower", "run_s", table2W, jobWs},
	{"experiments.simulate_s.fidelity", "s", "lower", "run_s", table2W, jobWs},
	{"experiments.simulate_s.fair", "s", "lower", "run_s", table2W, jobWs},
	{"experiments.simulate_s.rlbase", "s", "lower", "run_s", table2W, jobWs},
	{"experiments.overhead_s", "s", "lower", "run_s", table2W, jobWs},
	{"qcloudsim.edge_s", "s", "lower", "jobs_per_s", serveW + ", " + httpW, table2W},
	{"gc.cycles", "count", "lower", "cpu_s, peak_rss_mb", "all", "none"},
	{"gc.pause_s", "s", "lower", "cpu_s", "all", "none"},
	{"gc.cpu_frac", "ratio", "lower", "cpu_s", "all", "none"},
	{"heap.peak_mb", "MB", "lower", "peak_rss_mb", "all", "none"},
	{"heap.alloc_bytes_per_job", "bytes/job", "lower", "cpu_s, peak_rss_mb", "all", "none"},
	{"heap.allocs_per_job", "allocs/job", "lower", "cpu_s", "all", "none"},
	{"trace.overhead_frac", "ratio", "lower", "none (cost of tracing itself)", "all", "none"},
}

// extraLayers are measured only on the workloads BENCHMARK.json does
// not list. The report prints them; the result line leaves them out.
var extraLayers = []metricDef{
	{"job.load_csv_s", "s", "lower", "jobs_per_s", batchW, serveW + ", " + httpW},
	{"api.self_s", "s", "lower", "jobs_per_s", httpW, serveW},
}

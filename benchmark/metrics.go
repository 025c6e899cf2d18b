package main

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.10},
	{"cpu_s_per_pass", "s", "lower", 0.10},
	{"allocs_per_pass", "count", "lower", 0.02},
	{"alloc_mb_per_pass", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics every traced run reports, one layer (module)
// per prefix. They have no bound: they say where a change landed, the
// end-to-end metrics say whether it counted. README.md lists which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.timer_churn_ns", Unit: "ns", Better: "lower"},
	{Name: "mac.sim_s_per_host_s", Unit: "s/s", Better: "higher"},
	{Name: "mac.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "mac.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "phy.fanout_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "phy.delivery_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.mis_ms", Unit: "ms", Better: "lower"},
	{Name: "core.region_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.solve_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.prepare_s", Unit: "s", Better: "lower"},
	{Name: "experiments.inject_s", Unit: "s", Better: "lower"},
	{Name: "experiments.prepare_share", Unit: "ratio", Better: "lower"},
	{Name: "exp.fig3_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig10_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig11_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig13_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig14_s", Unit: "s", Better: "lower"},
	{Name: "exp.cell_max_share", Unit: "ratio", Better: "lower"},
	{Name: "exp.merge_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runner.noop_cell_ns", Unit: "ns", Better: "lower"},
	{Name: "runner.noop_cell_2w_ns", Unit: "ns", Better: "lower"},
	{Name: "runner.scaling_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "sink.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "sink.encode_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "sink.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "sink.decode_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "dist.fresh_s", Unit: "s", Better: "lower"},
	{Name: "dist.resume_s", Unit: "s", Better: "lower"},
	{Name: "dist.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.ready_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.stream_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dist.validate_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dist.dispatches", Unit: "count", Better: "lower"},
	{Name: "dist.retries", Unit: "count", Better: "lower"},
	{Name: "dist.steals", Unit: "count", Better: "lower"},
	{Name: "dist.resume_reused", Unit: "count", Better: "higher"},
	{Name: "serve.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.jobkey_us", Unit: "us", Better: "lower"},
	{Name: "serve.lookup_large_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_large_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.records_large_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_small_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_small_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_large_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_large_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

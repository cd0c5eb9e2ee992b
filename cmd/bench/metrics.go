package main

// metricDef declares one metric: its unit, which direction is better, and
// (end-to-end metrics only) the share of the baseline's median by which it
// may get worse before a change counts as a regression. BENCHMARK.json
// carries the same table; the self-test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, by the same definition. A bound is at least twice the
// widest run-to-run spread (interquartile over ten runs on ten seeds, as a
// share of the median) the metric showed on any workload, in reference time,
// over five such sets of runs: up to 6.5% for the latency median, the rates
// and CPU, 3% for memory, 7% for the tail, 10% for the write metrics (whose
// sub-millisecond batches are wake-ups more than work on the two workloads
// that write in a phase of their own), 14% for the one-second set-up and
// recovery times. Set-up's is the largest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.15},
	{"query_p90_ms", "ms", "lower", 0.20},
	{"queries_per_s", "1/s", "higher", 0.15},
	{"answer_rows_per_s", "1/s", "higher", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"write_p50_ms", "ms", "lower", 0.20},
	{"facts_per_s", "1/s", "higher", 0.20},
	{"recover_s", "s", "lower", 0.20},
}

// perLayer are the metrics of single layers, from the traced run, the
// counter snapshots and the layer probes. A layer a workload does not
// touch reports 0.
var perLayer = []metricDef{
	{name: "pdms.reformulate_us", unit: "us", better: "lower"},
	{name: "pdms.reformulate_share_pct", unit: "%", better: "lower"},
	{name: "parser.parse_us", unit: "us", better: "lower"},
	{name: "pdms.reform_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "pdms.answer_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "pdms.invalidations", unit: "count", better: "lower"},

	{name: "core.catalog_us", unit: "us", better: "lower"},
	{name: "core.tree_build_us", unit: "us", better: "lower"},
	{name: "core.nodes_per_query", unit: "count", better: "lower"},
	{name: "core.ns_per_node", unit: "ns", better: "lower"},
	{name: "core.allocs_per_node", unit: "count", better: "lower"},
	{name: "core.first_rewriting_us", unit: "us", better: "lower"},
	{name: "core.all_rewritings_us", unit: "us", better: "lower"},
	{name: "core.reformulate_us", unit: "us", better: "lower"},
	{name: "core.rewritings_per_query", unit: "count", better: "lower"},
	{name: "core.pruned_empty", unit: "count", better: "higher"},
	{name: "core.pruned_subsumed", unit: "count", better: "higher"},
	{name: "core.memo_hits", unit: "count", better: "higher"},
	{name: "core.dead_ends", unit: "count", better: "lower"},
	{name: "containment.remove_redundant_us", unit: "us", better: "lower"},
	{name: "containment.redundant_share", unit: "ratio", better: "lower"},

	{name: "netpeer.eval_ucq_us", unit: "us", better: "lower"},
	{name: "netpeer.eval_ucq_share_pct", unit: "%", better: "lower"},
	{name: "netpeer.requests_per_query", unit: "count", better: "lower"},
	{name: "netpeer.rows_fetched_per_answer_row", unit: "ratio", better: "lower"},
	{name: "netpeer.bind_batches_per_query", unit: "count", better: "lower"},
	{name: "netpeer.bind_pipelined_share", unit: "ratio", better: "higher"},
	{name: "netpeer.dials", unit: "count", better: "lower"},
	{name: "netpeer.pool_waits", unit: "count", better: "lower"},
	{name: "netpeer.busy_retries", unit: "count", better: "lower"},
	{name: "netpeer.hop_us", unit: "us", better: "lower"},
	{name: "netpeer.hop_rows_per_s", unit: "1/s", better: "higher"},
	{name: "netpeer.add_us_per_row", unit: "us", better: "lower"},
	{name: "fragcache.hit_rate", unit: "ratio", better: "higher"},
	{name: "fragcache.revalidations_per_query", unit: "count", better: "lower"},
	{name: "fragcache.invalidations", unit: "count", better: "lower"},
	{name: "fragcache.evictions", unit: "count", better: "lower"},
	{name: "fragcache.bytes", unit: "bytes", better: "lower"},
	{name: "server.requests", unit: "count", better: "lower"},
	{name: "server.rows_served", unit: "count", better: "lower"},
	{name: "server.shed", unit: "count", better: "lower"},
	{name: "server.read_errors", unit: "count", better: "lower"},

	{name: "wire.encode_rows_per_s", unit: "1/s", better: "higher"},
	{name: "wire.decode_rows_per_s", unit: "1/s", better: "higher"},
	{name: "wire.bytes_per_row", unit: "bytes", better: "lower"},
	{name: "wire.bytes_sent_per_query", unit: "bytes", better: "lower"},
	{name: "wire.bytes_recv_per_query", unit: "bytes", better: "lower"},
	{name: "wire.max_frame_bytes", unit: "bytes", better: "lower"},

	{name: "engine.eval_ucq_us", unit: "us", better: "lower"},
	{name: "engine.eval_ucq_share_pct", unit: "%", better: "lower"},
	{name: "engine.eval_cq_us", unit: "us", better: "lower"},
	{name: "engine.probe_batch_us_per_key", unit: "us", better: "lower"},
	{name: "engine.stream_scan_rows_per_s", unit: "1/s", better: "higher"},
	{name: "engine.probes_per_query", unit: "count", better: "lower"},
	{name: "engine.scans_per_query", unit: "count", better: "lower"},
	{name: "engine.plans_compiled", unit: "count", better: "lower"},
	{name: "engine.indexes_built", unit: "count", better: "lower"},

	{name: "rel.insert_us_per_row", unit: "us", better: "lower"},
	{name: "rel.heap_bytes_per_row", unit: "bytes", better: "lower"},

	{name: "store.append_us_per_row", unit: "us", better: "lower"},
	{name: "store.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "store.replay_rows_per_s", unit: "1/s", better: "higher"},
	{name: "store.close_ms", unit: "ms", better: "lower"},

	{name: "swarm.generate_ms", unit: "ms", better: "lower"},
	{name: "swarm.boot_ms", unit: "ms", better: "lower"},

	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.span_coverage_pct", unit: "%", better: "higher"},
}

// unitOf returns the unit of the named end-to-end metric.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

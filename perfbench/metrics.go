package main

// metricDef is one metric of BENCHMARK.json. bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics printed with --trace 0, from untraced passes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"vlat_p50_us", "us", "lower", 0.25},
	{"vlat_p90_us", "us", "lower", 0.25},
	{"vgoodput_mbps", "MB/s", "higher", 0.15},
}

// perLayer are the metrics printed with --trace 1.
var perLayer = append(cpuDefs(), []metricDef{
	{"trace.cpu_s", "s", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"host.ns_per_packet", "ns", "lower", 0},
	{"host.mallocs_per_op", "count", "lower", 0},
	{"host.alloc_mb.setup", "MB", "lower", 0},
	{"host.alloc_mb.run", "MB", "lower", 0},
	{"host.build_s", "s", "lower", 0},
	{"host.init_s", "s", "lower", 0},
	{"netsim.packets", "count", "lower", 0},
	{"netsim.wire_mb", "MB", "lower", 0},
	{"netsim.trunk_wait_ms", "ms", "lower", 0},
	{"netsim.trunk_peak", "count", "lower", 0},
	{"core.eager_msgs.san", "count", "lower", 0},
	{"core.eager_msgs.wan", "count", "lower", 0},
	{"core.rndv_msgs.san", "count", "lower", 0},
	{"core.rndv_msgs.wan", "count", "lower", 0},
	{"core.forwarded", "count", "lower", 0},
	{"core.relay_mb", "MB", "lower", 0},
	{"core.relay_deferred", "count", "lower", 0},
	{"core.relay_busy", "count", "lower", 0},
	{"core.rndv_retries", "count", "lower", 0},
	{"core.relay_qpeak", "count", "lower", 0},
	{"core.relay_drops", "count", "lower", 0},
	{"core.payload_per_wire", "ratio", "higher", 0},
	{"core.eager_send_ms", "ms", "lower", 0},
	{"core.rndv_body_ms", "ms", "lower", 0},
	{"core.relay_hop_ms", "ms", "lower", 0},
	{"core.credit_wait_ms", "ms", "lower", 0},
	{"mpi.sched_rounds", "count", "lower", 0},
	{"mpi.sched_round_ms", "ms", "lower", 0},
	{"mpi.coll_ms", "ms", "lower", 0},
	{"mpi.vinit_ms", "ms", "lower", 0},
}...)

func cpuDefs() []metricDef {
	out := make([]metricDef, len(cpuBuckets))
	for i, b := range cpuBuckets {
		out[i] = metricDef{"host.cpu_s." + b, "s", "lower", 0}
	}
	return out
}

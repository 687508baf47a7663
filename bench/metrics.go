package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; bench_test.go holds the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// exact metrics are functions of the seed alone: two runs of one seed
	// on one commit must agree bit for bit, traced or not.
	exact bool
}

// endToEnd is reported by an untraced run. BENCHMARK.json takes one bound
// per metric for all workloads, and the benchmark driver compares medians
// over runs of different seeds, so each bound has to hold on the workload
// where the metric varies most from seed to seed. Aimed at three times that
// workload's spread, capped at the 25 % the driver takes (README.md,
// "Run-to-run spread", has the measurements):
//
//	host_ops_per_s        kv-naive-tenants 16 %, the shared host's drift
//	host_alloc_kb_per_op  shard-2pc 2 %, the transactions a seed draws
//	host_peak_rss_mb      doc-chain-tenants 1 %
//	setup_s               the widest bound, as the driver's contract asks
//	virt_ops_per_s        kv-naive-tenants 1.6 %, shard-2pc 1.4 %
//	virt_write_p50_us     kv-naive-tenants 4 %, the tenant noise a seed draws
//	virt_write_p99_us     kv-naive-tenants 5 %, the same
//	virt_write_p999_us    kv-naive-tenants 9 %, the same
//
// On the three chain workloads the virt_write_* percentiles differ by under
// 0.1 % between seeds (p99.9 by 0.3 %, on shard-2pc by 3 %).
var endToEnd = []metricDef{
	{name: "host_ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "host_alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.05},
	{name: "host_peak_rss_mb", unit: "MiB", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "virt_ops_per_s", unit: "1/s", better: "higher", bound: 0.05, exact: true},
	{name: "virt_write_p50_us", unit: "us", better: "lower", bound: 0.10, exact: true},
	{name: "virt_write_p99_us", unit: "us", better: "lower", bound: 0.10, exact: true},
	{name: "virt_write_p999_us", unit: "us", better: "lower", bound: 0.25, exact: true},
}

// sameSeedBound replaces the bound of an exact end-to-end metric when
// -compare is given two result files of one seed: nothing varies from seed
// to seed then, any difference is a change of the model, and a 1 % worse
// p99 on doc-chain-tenants is a regression.
const sameSeedBound = 0.01

// perLayer is reported by a traced run.
var perLayer = []metricDef{
	{name: "sim.events_per_op", unit: "count", better: "lower", exact: true},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.pending_p50", unit: "count", better: "lower", exact: true},
	{name: "sim.timer_ns", unit: "ns", better: "lower"},
	{name: "sim.fiber_switch_ns", unit: "ns", better: "lower"},
	{name: "rdma.msgs_per_op", unit: "count", better: "lower", exact: true},
	{name: "rdma.wire_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "rdma.write_rtt_host_ns", unit: "ns", better: "lower"},
	{name: "rdma.write_rtt_virt_ns", unit: "ns", better: "lower", exact: true},
	{name: "nvm.writes_per_op", unit: "count", better: "lower", exact: true},
	{name: "nvm.flushes_per_op", unit: "count", better: "lower", exact: true},
	{name: "nvm.write_seq_ns", unit: "ns", better: "lower"},
	{name: "nvm.write_scatter_ns", unit: "ns", better: "lower"},
	{name: "nvm.flush_ns", unit: "ns", better: "lower"},
	{name: "cpusim.ctx_switches_per_op", unit: "count", better: "lower", exact: true},
	{name: "cpusim.wakes_per_op", unit: "count", better: "lower", exact: true},
	{name: "cpusim.tenant_host_ns_per_virt_ms", unit: "ns", better: "lower"},
	{name: "cpusim.tenant_events_per_virt_ms", unit: "count", better: "lower", exact: true},
	{name: "protocol.gwrite_per_op", unit: "count", better: "lower", exact: true},
	{name: "protocol.gmemcpy_per_op", unit: "count", better: "lower", exact: true},
	{name: "protocol.gcas_per_op", unit: "count", better: "lower", exact: true},
	{name: "protocol.gflush_per_op", unit: "count", better: "lower", exact: true},
	{name: "protocol.gwrite_virt_us", unit: "us", better: "lower", exact: true},
	{name: "protocol.gmemcpy_virt_us", unit: "us", better: "lower", exact: true},
	{name: "protocol.gcas_virt_us", unit: "us", better: "lower", exact: true},
	{name: "protocol.gflush_virt_us", unit: "us", better: "lower", exact: true},
	{name: "protocol.below_host_us_per_op", unit: "us", better: "lower"},
	{name: "protocol.errors", unit: "count", better: "lower", exact: true},
	{name: "txn.append_virt_us", unit: "us", better: "lower", exact: true},
	{name: "txn.execute_virt_us", unit: "us", better: "lower", exact: true},
	{name: "txn.append_host_us", unit: "us", better: "lower"},
	{name: "wal.encode_ns", unit: "ns", better: "lower"},
	{name: "wal.scan_ns", unit: "ns", better: "lower"},
	{name: "shard.put_virt_us", unit: "us", better: "lower", exact: true},
	{name: "shard.txn_span1_virt_us", unit: "us", better: "lower", exact: true},
	{name: "shard.txn_span2_virt_us", unit: "us", better: "lower", exact: true},
	{name: "shard.txn_span4_virt_us", unit: "us", better: "lower", exact: true},
	{name: "shard.txn_span4_host_us", unit: "us", better: "lower"},
	{name: "shard.cross_shard_share", unit: "ratio", better: "higher", exact: true},
	{name: "shard.aborts", unit: "count", better: "lower", exact: true},
	{name: "app.self_host_us_per_op", unit: "us", better: "lower"},
	{name: "app.self_virt_us_per_op", unit: "us", better: "lower", exact: true},
	{name: "kvstore.checkpoints", unit: "count", better: "lower", exact: true},
	{name: "trace.host_us_per_op", unit: "us", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// unitOf returns the unit a metric is defined with. Reporting a metric
// that has no definition is a bug in the benchmark.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not defined in metrics.go")
}

package main

// metricDef names one reported metric. For a per-layer metric, moves names
// the end-to-end metrics it should move and on which workload, and not
// names where it should stay put. BENCHMARK.json lists the same names,
// units and directions; a self-test keeps the two in step.
type metricDef struct {
	name, unit, better string
	moves, not         string
}

// endToEnd are the metrics of a run with tracing off that BENCHMARK.json
// gates. Each is defined and never 0 on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "run_s", unit: "s", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "sim_fct_p99_us", unit: "us", better: "lower"},
	{name: "sim_slo_attain_pct", unit: "%", better: "higher"},
}

// perLayer are the traced run's metrics. A layer a workload leaves idle is
// still timed: the traced run drives it on the workload's graph and
// traffic (the packet datapath for a bounded window on the fluid
// workloads, the fluid solver on packet-crc's shuffle), and that layer's
// counts are then the probe's (fluid.fills on packet-crc, sim.events and
// fabric.frames on the fluid workloads). Counts of a layer nothing calls
// read 0: ringctl on the fluid workloads, service and checkpoint on the
// batch workloads.
var perLayer = []metricDef{
	{name: "topo.build_s", unit: "s", better: "lower", moves: "setup_s on packet-crc", not: "run_s on fluid-perm"},
	{name: "fec.lookup_us", unit: "us", better: "lower", moves: "setup_s on packet-crc", not: "run_s on all"},
	{name: "route.build_s", unit: "s", better: "lower", moves: "run_s on fluid-perm; setup_s on packet-crc", not: "serve-flaps tick times"},
	{name: "route.heap_mib", unit: "MiB", better: "lower", moves: "peak_rss_mib on fluid-perm", not: "packet-crc"},
	{name: "route.repair_us", unit: "us", better: "lower", moves: "tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "route.repairs", unit: "count", better: "lower", moves: "tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "fabric.build_s", unit: "s", better: "lower", moves: "setup_s on packet-crc", not: "fluid workloads"},
	{name: "fluid.session_s", unit: "s", better: "lower", moves: "run_s on fluid-perm", not: "packet-crc"},
	{name: "fluid.advance_s", unit: "s", better: "lower", moves: "run_s on fluid-perm", not: "packet-crc"},
	{name: "fluid.fills", unit: "count", better: "lower", moves: "run_s on fluid-perm and tick_p50_us on serve-flaps", not: "packet-crc"},
	{name: "fluid.warm_hit_pct", unit: "%", better: "higher", moves: "run_s on fluid-perm and tick_p50_us on serve-flaps", not: "packet-crc"},
	{name: "fluid.fill_us", unit: "us", better: "lower", moves: "run_s on fluid-perm and tick_p50_us on serve-flaps", not: "packet-crc"},
	{name: "fluid.alloc_mib", unit: "MiB", better: "lower", moves: "peak_rss_mib, tick_p99_us", not: "packet-crc"},
	{name: "service.completed", unit: "count", better: "higher", moves: "tick_p50_us on serve-flaps", not: "n/a"},
	{name: "service.retained_peak", unit: "count", better: "lower", moves: "tick_p50_us on serve-flaps", not: "n/a"},
	{name: "faults.capacity_events", unit: "count", better: "lower", moves: "tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "faults.reroutes", unit: "count", better: "lower", moves: "tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "faults.starved_episodes", unit: "count", better: "lower", moves: "tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "checkpoint.bytes", unit: "bytes", better: "lower", moves: "restore_s on serve-flaps", not: "n/a"},
	{name: "sim.events", unit: "count", better: "lower", moves: "run_s on packet-crc", not: "fluid workloads"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower", moves: "run_s on packet-crc", not: "fluid workloads"},
	{name: "fabric.frames", unit: "count", better: "lower", moves: "run_s on packet-crc", not: "fluid workloads"},
	{name: "fabric.ns_per_frame", unit: "ns", better: "lower", moves: "run_s on packet-crc", not: "fluid workloads"},
	{name: "fabric.dropped", unit: "count", better: "lower", moves: "sim_fct_p99_us, failed_pct on packet-crc", not: "fluid workloads"},
	{name: "host.retransmits", unit: "count", better: "lower", moves: "sim_fct_p99_us, failed_pct on packet-crc", not: "fluid workloads"},
	{name: "fabric.peak_queue_us", unit: "us", better: "lower", moves: "sim_fct_p99_us on packet-crc", not: "fluid workloads"},
	{name: "ringctl.decisions", unit: "count", better: "lower", moves: "sim_fct_p99_us, sim_slo_attain_pct on packet-crc", not: "fluid workloads"},
	{name: "trace.on_ratio", unit: "ratio", better: "lower", moves: "none: guards the flight recorder's free-when-off claim", not: "n/a"},
	{name: "trace.events", unit: "count", better: "higher", moves: "none", not: "n/a"},
	{name: "trace.overwritten", unit: "count", better: "lower", moves: "none", not: "n/a"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "run_s, tick_p99_us", not: "n/a"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "run_s, tick_p99_us", not: "n/a"},
	{name: "runtime.alloc_mib", unit: "MiB", better: "lower", moves: "run_s, tick_p99_us", not: "n/a"},
	{name: "bench.traced_ratio", unit: "ratio", better: "lower", moves: "none: the benchmark's own span overhead, the replay with spans over the same replay without", not: "n/a"},
}

// serveExtras are per-tick layer times only serve-flaps has; they print
// with its traced run but are not BENCHMARK.json metrics, which every
// workload must report.
var serveExtras = []metricDef{
	{name: "workload.arrivals_us", unit: "us", moves: "tick_p50_us, tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "fluid.inject_us", unit: "us", moves: "tick_p50_us, tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "fluid.tick_advance_us", unit: "us", moves: "tick_p50_us, tick_p99_us on serve-flaps", not: "fluid-perm"},
	{name: "fluid.retire_us", unit: "us", moves: "tick_p50_us, tick_p99_us on serve-flaps", not: "fluid-perm"},
}

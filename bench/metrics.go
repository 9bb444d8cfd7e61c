package main

// metricDef declares one reported metric: its name, unit, and which
// direction is better. BENCHMARK.json declares the same sets.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are what a user of each workload sees; every workload
// reports every one of them (an operation is a simulated connection on
// the fleet workloads and a proxied fetch on serve-loopback).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// suiteDefs are the layer suite's per-layer costs (see layers.go).
var suiteDefs = []metricDef{
	{"trafficgen.append_ns", "ns", "lower"},
	{"netsim.connect_batch_ns", "ns", "lower"},
	{"netsim.connect_impaired_ns", "ns", "lower"},
	{"netsim.new_link_ns", "ns", "lower"},
	{"netsim.new_link_bytes", "B", "lower"},
	{"netsim.wheel_ns_per_timer", "ns", "lower"},
	{"reaction.register_nonce_ns", "ns", "lower"},
	{"reaction.filter_bytes_per_server", "B", "lower"},
	{"bloom.add_ns", "ns", "lower"},
	{"gfw.passive_verdict_ns", "ns", "lower"},
	{"detector.chain_observe_ns", "ns", "lower"},
	{"gfw.probe_ns", "ns", "lower"},
	{"fleet.snapshot_s_per_mb", "s/MB", "lower"},
	{"fleet.restore_s_per_mb", "s/MB", "lower"},
	{"fleet.report_s", "s", "lower"},
	{"sscrypto.seal_ns_per_kb", "ns/KiB", "lower"},
	{"sscrypto.open_ns_per_kb", "ns/KiB", "lower"},
	{"sscrypto.subkey_ns", "ns", "lower"},
	{"ssclient.dial_us", "us", "lower"},
	{"serve.first_byte_us", "us", "lower"},
}

// countNames are the traced repetition's own counters (zero where the
// layer does not run on the workload).
var countNames = []string{
	"fleet.wakeups", "fleet.flows", "fleet.replacements",
	"gfw.triggers", "gfw.payloads_recorded", "gfw.probes_sent", "gfw.block_events", "gfw.probe_retries",
	"net.flows_total", "net.flows_blocked", "net.impair_dropped_flows", "net.impair_retransmits",
	"sim.events_dispatched", "wheel.scheduled", "wheel.cascaded", "wheel.anchors",
	"ssserver.accepted", "ssserver.proxied", "ssclient.dials",
}

// ledgerLayers are the cost ledger's rows: ledger.<layer>.frac is the
// share of the ledger window's CPU time the layer's cost model accounts
// for, ledger.<layer>.prof_frac the share the CPU profile measures under
// the layer's entry points (see layerFocus).
var ledgerLayers = []string{
	"trafficgen", "netsim_connect", "netsim_link", "wheel", "reaction", "bloom",
	"gfw_passive", "gfw_probe", "sscrypto",
}

// profBuckets are the groups the CPU profile's flat time is summed into:
// the repository's packages by name, plus runtime, math/rand, math, time,
// the standard crypto packages, the socket/syscall layer, the benchmark
// itself, and everything else.
var profBuckets = []string{
	"trafficgen", "netsim", "gfw", "detector", "entropy", "probe", "reaction", "replay", "bloom",
	"fleet", "seedfork", "stats", "sscrypto", "ssproto", "ssserver", "ssclient", "socks",
	"runtime", "math_rand", "math", "time", "crypto", "syscall_net", "bench", "other",
}

// perLayerDefs is every metric a traced run reports.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), suiteDefs...)
	defs = append(defs,
		metricDef{"fleet.cpu_per_wall", "ratio", "higher"},
		metricDef{"trace.ops_per_s_ratio", "ratio", "higher"},
		metricDef{"wheel.cascaded_per_scheduled", "ratio", "lower"},
		metricDef{"gfw.record_frac", "ratio", "lower"},
		metricDef{"gfw.probes_per_block", "ratio", "lower"},
	)
	for _, n := range countNames {
		defs = append(defs, metricDef{n, "count", "lower"})
	}
	for _, l := range ledgerLayers {
		defs = append(defs, metricDef{"ledger." + l + ".frac", "frac", "lower"})
	}
	defs = append(defs, metricDef{"ledger.residual_frac", "frac", "lower"})
	for _, l := range ledgerLayers {
		defs = append(defs, metricDef{"ledger." + l + ".prof_frac", "frac", "lower"})
	}
	for _, b := range profBuckets {
		defs = append(defs, metricDef{"prof." + b + ".self_frac", "frac", "lower"})
	}
	return defs
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

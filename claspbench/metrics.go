package main

import (
	"fmt"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, reported with --trace 0. The unit
// of work is one `clasp report all` command.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cpuModules are the layers whose self share of clasp's sampled CPU is
// reported as <module>.cpu_frac: every package clasp links.
var cpuModules = []string{
	"alias", "analysis", "bdrmap", "bgp", "checkpoint", "clasp", "cloud",
	"cmd_clasp", "colenc", "congestion", "core", "faults", "flowstats",
	"geo", "hmm", "inband", "netsim", "obs", "orchestrator", "pcap",
	"pfx2as", "scenario", "selection", "someta", "speedchecker", "stats",
	"tcpmodel", "telemetry", "topology", "traceroute", "tsdb",
}

// allocModules are the layers whose bytes allocated by clasp are reported
// as <module>.alloc_mb: the ones that allocate in bulk on some workload.
var allocModules = []string{
	"alias", "analysis", "bdrmap", "bgp", "checkpoint", "cloud", "colenc",
	"congestion", "core", "geo", "netsim", "obs", "orchestrator", "scenario",
	"selection", "someta", "speedchecker", "stats", "telemetry", "topology",
	"traceroute", "tsdb",
}

// daemonCPUModules and daemonAllocModules are the speedtestd layers
// reported as speedtestd.<module>.cpu_frac and speedtestd.<module>.alloc_mb
// from the daemon's own profiles.
var (
	daemonCPUModules = []string{
		"cmd_speedtestd", "colenc", "daemon", "ndt7", "ookla", "speedtest",
		"telemetry", "tsdb", "wsock", "xfinity",
	}
	daemonAllocModules = []string{"daemon", "ndt7", "ookla", "telemetry", "wsock", "xfinity"}
)

// daemonPrefix names the per-layer values taken from speedtestd's
// profiles, apart from clasp's.
const daemonPrefix = "speedtestd."

// perLayer are the metrics reported with --trace 1. A layer a workload
// does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_frac", "ratio"},
		{"tracing.overhead_s", "s"},
		{"profile.cpu_coverage", "ratio"},
		{"topology.build_s", "s"},
		{"bgp.router_s", "s"},
		{"bgp.warm_s", "s"},
		{"core.engine_new_s", "s"},
		{"selection.topology_s", "s"},
		{"selection.differential_s", "s"},
		{"orchestrator.warm_s", "s"},
		{"orchestrator.deploy_s", "s"},
		{"orchestrator.measure_s", "s"},
		{"orchestrator.emit_s", "s"},
		{"orchestrator.traceroute_s", "s"},
		{"orchestrator.records", "count"},
		{"netsim.ns_per_record", "ns"},
		{"netsim.flowcache_hit_ratio", "ratio"},
		{"someta.snapshots", "count"},
		{"cloud.egress_bytes", "bytes"},
		{"tsdb.inserts", "count"},
		{"tsdb.with_colenc_cpu_frac", "ratio"},
		{"tsdb.ns_per_insert", "ns"},
		{"tsdb.lock_wait_s", "s"},
		{"colenc.tsdb_cpu_frac", "ratio"},
		{"colenc.recordlog_cpu_frac", "ratio"},
		{"analysis.prep_cpu_frac", "ratio"},
		{"analysis.recordlog_cpu_frac", "ratio"},
		{"analysis.recordlog_bytes_per_record", "bytes"},
		{"scenario.render_s", "s"},
		{"durable.wall_s", "s"},
		{"durable.cpu_s", "s"},
		{"checkpoint.commits", "count"},
		{"checkpoint.bytes_written", "bytes"},
		{"checkpoint.storage_bytes_written", "bytes"},
		{"checkpoint.final_bytes", "bytes"},
		{"checkpoint.write_amplification", "ratio"},
		{"checkpoint.incl_cpu_frac", "ratio"},
		{"serve_goodput_mbps", "Mbit/s"},
		{"serve_ping_p50_ms", "ms"},
		{"serve_ping_ptail_ms", "ms"},
		{"serve_ping_ptail_pct", "%"},
		{"serve_ping_samples", "count"},
		{"serve.tests", "count"},
		{"serve.ookla_mbps", "Mbit/s"},
		{"serve.mlab_mbps", "Mbit/s"},
		{"serve.comcast_mbps", "Mbit/s"},
		{"daemon.ookla_download_p50_ms", "ms"},
		{"daemon.http_p50_ms", "ms"},
		{"daemon.start_s", "s"},
		{daemonPrefix + "cpu_s_per_gib", "s"},
		{daemonPrefix + "peak_rss_mb", "MB"},
		{daemonPrefix + "cpu_coverage", "ratio"},
		{unattributed + ".cpu_frac", "ratio"},
		{"other.cpu_frac", "ratio"},
		{unattributed + ".alloc_mb", "MB"},
		{"other.alloc_mb", "MB"},
		{daemonPrefix + unattributed + ".cpu_frac", "ratio"},
		{daemonPrefix + "other.cpu_frac", "ratio"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_frac", "ratio"})
	}
	for _, m := range allocModules {
		defs = append(defs, metricDef{m + ".alloc_mb", "MB"})
	}
	for _, m := range daemonCPUModules {
		defs = append(defs, metricDef{daemonPrefix + m + ".cpu_frac", "ratio"})
	}
	for _, m := range daemonAllocModules {
		defs = append(defs, metricDef{daemonPrefix + m + ".alloc_mb", "MB"})
	}
	return defs
}()

// cpuLedger records a CPU profile's layer shares. The <module>.cpu_frac
// values, other.cpu_frac and gc.cpu_frac partition the sampled CPU; the
// tsdb, colenc and analysis breakdowns are views across it.
// processCPU is the profiled process's CPU over the same span, against
// which the sampled total is reconciled.
func (r *run) cpuLedger(l *ledger, processCPU float64) {
	r.cpuShares(l, "", cpuModules)
	r.values["tsdb.with_colenc_cpu_frac"] = l.frac(l.Self["tsdb"] + l.ColencBy["tsdb"])
	r.values["colenc.tsdb_cpu_frac"] = l.frac(l.ColencBy["tsdb"])
	r.values["analysis.prep_cpu_frac"] = l.frac(l.Prep)
	r.values["profile.cpu_coverage"] = ratio(l.Total/1e9, processCPU)
	printLedger("cpu ledger", l, processCPU)
}

// cpuShares records l's self shares of modules as <prefix><module>.cpu_frac,
// and the rest of the partition as <prefix>gc.cpu_frac and
// <prefix>other.cpu_frac, so the recorded shares sum to 1.
func (r *run) cpuShares(l *ledger, prefix string, modules []string) {
	listed := map[string]bool{unattributed: true}
	for _, m := range modules {
		listed[m] = true
		r.values[prefix+m+".cpu_frac"] = l.frac(l.Self[m])
	}
	r.values[prefix+unattributed+".cpu_frac"] = l.frac(l.Self[unattributed])
	var other float64
	for m, v := range l.Self {
		if !listed[m] {
			other += v
		}
	}
	r.values[prefix+"other.cpu_frac"] = l.frac(other)
}

// printLedger prints a CPU ledger's whole self-share partition.
func printLedger(label string, l *ledger, processCPU float64) {
	var b strings.Builder
	var sum float64
	for _, m := range l.modules() {
		sum += l.frac(l.Self[m])
		fmt.Fprintf(&b, " %s=%.3f", m, l.frac(l.Self[m]))
	}
	fmt.Printf("# %s (self share of %.3f s sampled, process %.3f s; shares sum to %.4f):%s\n",
		label, l.Total/1e9, processCPU, sum, b.String())
}

// allocLedger records clasp's allocation profile's bytes per layer.
func (r *run) allocLedger(l *ledger) {
	listed := map[string]bool{unattributed: true}
	for _, m := range allocModules {
		listed[m] = true
		r.values[m+".alloc_mb"] = l.Self[m] / (1 << 20)
	}
	r.values[unattributed+".alloc_mb"] = l.Self[unattributed] / (1 << 20)
	var other float64
	for m, v := range l.Self {
		if !listed[m] {
			other += v
		}
	}
	r.values["other.alloc_mb"] = other / (1 << 20)
	printAllocLedger("alloc ledger", l)
}

// printAllocLedger prints an allocation ledger's bytes for every layer.
func printAllocLedger(label string, l *ledger) {
	var b strings.Builder
	for _, m := range l.modules() {
		fmt.Fprintf(&b, " %s=%.1f", m, l.Self[m]/(1<<20))
	}
	fmt.Printf("# %s (MB of %.1f MB allocated):%s\n", label, l.Total/(1<<20), b.String())
}

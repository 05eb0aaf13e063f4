package main

// metricDef is one entry of the benchmark's metric catalogue. The
// catalogue is the single source of BENCHMARK.json's metric lists (a test
// holds the two equal) and of the bounds compare mode judges against.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// End-to-end metrics only.
	Bound float64 // share of the baseline median a change may worsen it by
	// Gate marks the metrics BENCHMARK.json lists under end_to_end: every
	// workload emits them, and the untraced run's result line carries
	// exactly these.
	Gate bool
	// Workloads restricts a non-gate end-to-end metric to the workloads
	// that measure it.
	Workloads []string
}

// Workload names.
const (
	wReportDefault = "report-default"
	wReportSweep   = "report-sweep"
	wServeMix      = "serve-mix"
	wTraceSweep    = "trace-sweep"
)

var allWorkloads = []string{wReportDefault, wReportSweep, wServeMix, wTraceSweep}

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. Only the gate metrics exist on every workload and are
// never zero; the serve latencies exist only on serve-mix and
// error_ratio is zero on a healthy run, so those travel in the result
// file and the human-readable lines rather than in the result line.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05, Gate: true},
	{Name: "error_ratio", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "cold_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wServeMix}},
	{Name: "disk_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wServeMix}},
	{Name: "warm_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wServeMix}},
	{Name: "warm_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wServeMix}},
	{Name: "notmod_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wServeMix}},
	{Name: "notmod_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wServeMix}},
	{Name: "warm_rps", Unit: "req/s", Better: "higher", Bound: 0.25, Workloads: []string{wServeMix}},
}

// perLayer lists the traced run's metrics. Every workload emits all of
// them; a layer the workload does not run reads 0. NOTES.md maps each to
// the public call it times and the end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "core.section.table1_s", Unit: "s", Better: "lower"},
	{Name: "core.section.speedups_s", Unit: "s", Better: "lower"},
	{Name: "core.section.sync_s", Unit: "s", Better: "lower"},
	{Name: "core.section.workingsets_s", Unit: "s", Better: "lower"},
	{Name: "core.section.sampled_s", Unit: "s", Better: "lower"},
	{Name: "core.section.traffic_s", Unit: "s", Better: "lower"},
	{Name: "core.section.table3_s", Unit: "s", Better: "lower"},
	{Name: "core.section.linesize_s", Unit: "s", Better: "lower"},
	{Name: "core.render_s", Unit: "s", Better: "lower"},
	{Name: "core.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "core.unstable_rows", Unit: "count", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "mach.busy_s", Unit: "s", Better: "lower"},
	{Name: "mach.refs", Unit: "count", Better: "lower"},
	{Name: "mach.mrefs_per_s", Unit: "Mref/s", Better: "higher"},
	{Name: "memsys.replay.busy_s", Unit: "s", Better: "lower"},
	{Name: "memsys.replay.mrefs_per_s", Unit: "Mref/s", Better: "higher"},
	{Name: "memsys.replay.new_s", Unit: "s", Better: "lower"},
	{Name: "memsys.replay.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "memsys.stack.exact_s", Unit: "s", Better: "lower"},
	{Name: "memsys.stack.sampled_s", Unit: "s", Better: "lower"},
	{Name: "memsys.stack.sampled_gap", Unit: "ratio", Better: "lower"},
	{Name: "memsys.trace.encode_s", Unit: "s", Better: "lower"},
	{Name: "memsys.trace.decode_s", Unit: "s", Better: "lower"},
	{Name: "memsys.trace.digest_s", Unit: "s", Better: "lower"},
	{Name: "memsys.trace.bytes_per_ref", Unit: "B/ref", Better: "lower"},
	{Name: "runner.executed", Unit: "count", Better: "lower"},
	{Name: "runner.served", Unit: "count", Better: "higher"},
	{Name: "runner.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runner.lease_acquired", Unit: "count", Better: "lower"},
	{Name: "runner.journal_appends", Unit: "count", Better: "lower"},
	{Name: "runner.cache_put_s", Unit: "s", Better: "lower"},
	{Name: "runner.cache_get_s", Unit: "s", Better: "lower"},
	{Name: "serve.flights", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.server_share", Unit: "ratio", Better: "higher"},
}

// metricByName finds a catalogue entry.
func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// appliesTo reports whether an end-to-end metric is measured on workload.
func (m metricDef) appliesTo(workload string) bool {
	if m.Gate || len(m.Workloads) == 0 {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// expectedMetrics lists the metrics a run of workload must emit.
func expectedMetrics(workload string, traced bool) []string {
	var out []string
	if traced {
		for _, m := range perLayer {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range endToEnd {
		if m.appliesTo(workload) {
			out = append(out, m.Name)
		}
	}
	return out
}

// lineMetrics lists the metrics the result line carries: the gate
// end-to-end metrics untraced, every per-layer metric traced.
func lineMetrics(traced bool) []string {
	if traced {
		return expectedMetrics("", true)
	}
	var out []string
	for _, m := range endToEnd {
		if m.Gate {
			out = append(out, m.Name)
		}
	}
	return out
}

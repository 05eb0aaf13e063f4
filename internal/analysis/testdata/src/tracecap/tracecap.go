// Package tracecap seeds trace-capture violations: application/driver
// code calling the per-reference memsys entry points directly, which
// bypasses internal/mach's batched epoch-stamped capture path. The
// `// want <check>` markers are the golden diagnostics asserted by
// analysis_test.go.
package tracecap

import "splash2/internal/memsys"

// record stands in for app code writing straight into a recorder.
func record(rec *memsys.Recorder, a memsys.Addr) {
	rec.RecordBatch(1, 3, []uint64{uint64(a)}) // want tracecapture
	rec.RecordResetAt(4)                       // want tracecapture
}

// simulate stands in for driver code poking the memory system per event.
func simulate(sys *memsys.System, a memsys.Addr) {
	sys.Access(0, a, false)                      // want tracecapture
	sys.AccessAt(1, a, true, 7)                  // want tracecapture
	sys.AccessBatch(2, []uint64{8}, []uint64{1}) // want tracecapture
}

// methodValue escapes via a bound method, not a call.
func methodValue(sys *memsys.System) func(int, memsys.Addr, bool) (bool, memsys.MissKind) {
	return sys.Access // want tracecapture
}

// suppressed shows a justified tooling escape.
func suppressed(rec *memsys.Recorder) {
	//splash:allow tracecapture fixture: deliberate single-event tooling write with a reason
	rec.RecordBatch(0, 0, []uint64{8 << 8})
}

// replayIsClean: the replay entry points are not per-reference capture
// and stay legal everywhere.
func replayIsClean(tr *memsys.Trace, cfg memsys.Config) (memsys.Stats, error) {
	return memsys.Replay(tr, cfg)
}

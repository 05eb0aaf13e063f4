// Command perfbench is the repository's benchmark. One invocation runs
// one named workload end to end, checks its outputs against results the
// run produces itself, and prints every metric by name with its unit,
// ending with a one-line JSON result:
//
//	perfbench --workload report-sweep --seed 1 --seconds 10 --trace 0
//	perfbench compare <results-a> <results-b>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that times each layer's public functions
// (core, mach, memsys, runner, serve) from outside the program and
// reports the per-layer metrics. Each run also writes its full result,
// and a traced run its spans, under --results; compare reads two such
// directories. NOTES.md says why each workload exists and which layer
// metric should move which end-to-end metric.
//
// perfbench/run.sh builds this package into .bench_build and runs it;
// BENCHMARK.json names that script as the benchmark's command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"splash2/internal/core"
)

// workers is the engine parallelism and the bound on GOMAXPROCS: the
// reference host has 2 vCPUs.
const workers = 2

// runCtx is what a workload run gets.
type runCtx struct {
	seed    int64
	seconds float64
	apps    []string // the programs (the full suite except in tests)
	dir     string   // scratch directory, removed when the run ends
	res     *result
	tr      *tracer // nil on an untraced run
}

// tempDir makes a fresh directory under the run's scratch directory.
func (rc *runCtx) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(rc.dir, prefix)
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name   string
	why    string
	run    func(*runCtx) error // untraced: end-to-end metrics
	traced func(*runCtx) error // traced: per-layer metrics
}

var workloads = []workload{
	{
		name:   wReportDefault,
		why:    "cold default-scale report: per-reference replay and capture dominate",
		run:    func(rc *runCtx) error { return runReport(rc, core.DefaultScale) },
		traced: func(rc *runCtx) error { return tracedReport(rc, core.DefaultScale) },
	},
	{
		name:   wReportSweep,
		why:    "cold sweep-scale report: hundreds of small traces expose per-configuration set-up and runner I/O",
		run:    func(rc *runCtx) error { return runReport(rc, core.SweepScale) },
		traced: func(rc *runCtx) error { return tracedReport(rc, core.SweepScale) },
	},
	{
		name:   wServeMix,
		why:    "splashd under 2 closed-loop clients: cold coalesced, disk, memo and 304 requests",
		run:    runServeMix,
		traced: tracedServeMix,
	},
	{
		name:   wTraceSweep,
		why:    "record, v2-encode and stream each program through ReplaySweep: trace codec and serial replay",
		run:    runTraceSweep,
		traced: tracedTraceSweep,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (report-default, report-sweep, serve-mix, trace-sweep)")
	seed := fs.Int64("seed", 1, "seed of the workload's generated inputs")
	seconds := fs.Float64("seconds", 10, "measure for this long (at least one pass)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	results := fs.String("results", filepath.Join(".perfbench", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload <name> [--seed n] [--seconds s] [--trace 0|1]; workload %q\n", *name)
		return 2
	}
	if runtime.GOMAXPROCS(0) > workers {
		runtime.GOMAXPROCS(workers)
	}
	res, spans, err := runWorkload(w, *seed, *seconds, *trace == 1, core.Suite, filepath.Join(".perfbench", "work"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stem := fmt.Sprintf("%s.seed%d.trace%d.%d", w.name, *seed, *trace, os.Getpid())
	path, err := res.save(*results, stem, spans)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: saving results:", err)
		return 1
	}
	fmt.Fprintln(stdout, "results", path)
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed")
		return 1
	}
	return 0
}

// runWorkload runs one workload in a scratch directory under work and
// returns its finished result (and its spans when traced).
func runWorkload(w workload, seed int64, seconds float64, traced bool, apps []string, work string) (*result, *tracer, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{seed: seed, seconds: seconds, apps: apps, dir: dir, res: newResult(w.name, seed, traced, seconds)}
	fn := w.run
	if traced {
		rc.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, seed, os.Getpid()))
		fn = w.traced
	}
	if err := fn(rc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := rc.res.finish(); err != nil {
		return nil, nil, err
	}
	return rc.res, rc.tr, nil
}

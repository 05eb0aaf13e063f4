package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"splash2/internal/core"
	"splash2/internal/memsys"
)

// trace-sweep: for each program at default scale on 32 processors,
// record the trace (core.RecordApp), write a v2 container
// (Trace.WriteV2), open it with memsys.OpenTraceFile and stream it
// through ReplaySweep over the 11-size 4-way grid: what
// `trace record` followed by `trace replay -sweep -stream -j 2` runs.

const sweepProcs = 32

// setupsPerTraceSweep is how many times a run records and writes the
// containers: set-up is seconds long, so fewer samples than elsewhere.
const setupsPerTraceSweep = 5

// sweepConfigs is the `trace replay -sweep` grid for a trace that needs
// procs processors.
func sweepConfigs(procs int) []memsys.Config {
	var cfgs []memsys.Config
	for _, cs := range core.DefaultCacheSizes() {
		cfgs = append(cfgs, memsys.Config{Procs: procs, CacheSize: cs, Assoc: 4, LineSize: 64})
	}
	return cfgs
}

// sweepOrder is the program order, drawn from the seed.
func sweepOrder(apps []string, seed int64) []string {
	order := append([]string(nil), apps...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// containers is one set-up's output: a v2 container per program.
type containers struct {
	dir   string
	order []string
	refs  uint64
	bytes int64
}

func (c containers) path(app string) string { return filepath.Join(c.dir, app+".sp2t") }

// record records and writes every program's container into a fresh
// directory, returning the seconds spent recording and writing. after,
// when set, sees each in-memory trace once written (untimed).
func record(rc *runCtx, t *tracer, parent int, after func(app string, tr *memsys.Trace) error) (containers, float64, error) {
	dir, err := rc.tempDir("traces-")
	if err != nil {
		return containers{}, 0, err
	}
	c := containers{dir: dir, order: sweepOrder(rc.apps, rc.seed)}
	var setup float64
	for _, app := range c.order {
		var tr *memsys.Trace
		d, err := t.do("mach.record", parent, func(int) (err error) {
			tr, _, err = core.RecordApp(app, sweepProcs, nil)
			return err
		})
		if err != nil {
			return c, 0, fmt.Errorf("recording %s: %w", app, err)
		}
		setup += d
		d, err = t.do("memsys.trace.encode", parent, func(int) error { return writeContainer(tr, c.path(app)) })
		if err != nil {
			return c, 0, fmt.Errorf("writing %s: %w", app, err)
		}
		setup += d
		fi, err := os.Stat(c.path(app))
		if err != nil {
			return c, 0, err
		}
		c.bytes += fi.Size()
		c.refs += tr.Meta().Refs
		if after != nil {
			if err := after(app, tr); err != nil {
				return c, 0, err
			}
		}
	}
	return c, setup, nil
}

func writeContainer(tr *memsys.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	_, err = tr.WriteV2(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sweepPass opens and streams every container through ReplaySweep on a
// fresh engine (core.ReplaySweep with 2 workers, kept so its counters
// can be read) and returns the streamed results.
func sweepPass(c containers, t *tracer, parent int) (map[string][]memsys.Stats, *core.Engine, error) {
	e, err := core.NewEngine(core.EngineOptions{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	out := map[string][]memsys.Stats{}
	for _, app := range c.order {
		var tf *memsys.TraceFile
		if _, err := t.do("trace.open", parent, func(int) (err error) {
			tf, err = memsys.OpenTraceFile(c.path(app), nil)
			return err
		}); err != nil {
			return nil, nil, err
		}
		var st []memsys.Stats
		_, err := t.do("core.replaysweep", parent, func(int) (err error) {
			st, err = e.ReplaySweep(tf, sweepConfigs(tf.Meta().MinProcs))
			return err
		})
		tf.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("sweeping %s: %w", app, err)
		}
		out[app] = st
	}
	return out, e, nil
}

// inMemory computes the check's reference: ReplayMulti on the
// in-memory trace over the same grid.
func inMemory(tr *memsys.Trace) ([]memsys.Stats, error) {
	return memsys.ReplayMulti(tr, sweepConfigs(tr.Meta().MinProcs))
}

// checkSweep holds one pass's streamed results to the in-memory ones.
func checkSweep(r *result, c containers, streamed, want map[string][]memsys.Stats) {
	for _, app := range c.order {
		r.verify("streamed sweep equals in-memory ReplayMulti", checkStatsEqual(app, streamed[app], want[app]))
	}
}

func runTraceSweep(rc *runCtx) error {
	r := rc.res
	var setups []float64
	var c containers
	want := map[string][]memsys.Stats{}
	for i := 0; i < setupsPerTraceSweep; i++ {
		if c.dir != "" {
			os.RemoveAll(c.dir)
		}
		var after func(string, *memsys.Trace) error
		if i == setupsPerTraceSweep-1 {
			after = func(app string, tr *memsys.Trace) (err error) {
				want[app], err = inMemory(tr)
				return err
			}
		}
		runtime.GC()
		var setup float64
		var err error
		if c, setup, err = record(rc, nil, 0, after); err != nil {
			return err
		}
		setups = append(setups, setup)
	}
	var walls, allocs []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < rc.seconds {
		runtime.GC()
		a0 := allocBytes()
		t0 := time.Now()
		streamed, e, err := sweepPass(c, nil, 0)
		walls = append(walls, time.Since(t0).Seconds())
		allocs = append(allocs, float64(allocBytes()-a0)/1e6)
		if err != nil {
			return err
		}
		cn := e.Counts()
		r.ops(cn.Submitted, cn.Failed+cn.Skipped)
		checkSweep(r, c, streamed, want)
	}
	r.setMedian("wall_s", walls)
	r.setMedian("alloc_mb", allocs)
	r.setMedian("setup_s", setups)
	return nil
}

// tracedTraceSweep records once with spans around capture and encode
// (and around ReplayMulti and memsys.New on each in-memory trace), runs
// one traced sweep pass and one untraced pass as the overhead baseline,
// then times decode and digest over the containers.
func tracedTraceSweep(rc *runCtx) error {
	r, t := rc.res, rc.tr
	want := map[string][]memsys.Stats{}
	var tot layerTotals
	c, _, err := record(rc, t, 0, func(app string, tr *memsys.Trace) error {
		cfgs := sweepConfigs(tr.Meta().MinProcs)
		_, err := t.do("memsys.replay", 0, func(int) (err error) {
			want[app], err = inMemory(tr)
			return err
		})
		if err != nil {
			return err
		}
		tot.replayRefs += float64(tr.Meta().Refs) * float64(len(cfgs))
		a0 := allocBytes()
		_, err = t.do("memsys.new", 0, func(int) error {
			for _, cfg := range cfgs {
				if _, err := memsys.New(cfg, tr.HomeFn(cfg.LineSize)); err != nil {
					return err
				}
			}
			return nil
		})
		tot.newAlloc += allocBytes() - a0
		return err
	})
	if err != nil {
		return err
	}
	tot.refs = c.refs

	runtime.GC()
	var passID int
	var e *core.Engine
	var streamed map[string][]memsys.Stats
	wall, err := t.do("trace.sweep", 0, func(id int) (err error) {
		passID = id
		streamed, e, err = sweepPass(c, t, id)
		return err
	})
	if err != nil {
		return err
	}
	checkSweep(r, c, streamed, want)
	cn := e.Counts()
	r.ops(cn.Submitted, cn.Failed+cn.Skipped)

	// The overhead baseline: the same pass untraced.
	runtime.GC()
	t0 := time.Now()
	streamed, _, err = sweepPass(c, nil, 0)
	base := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	checkSweep(r, c, streamed, want)

	for _, app := range c.order {
		if _, err := t.do("memsys.trace.decode", 0, func(int) error { return decodeAll(c.path(app)) }); err != nil {
			return err
		}
		if _, err := t.do("memsys.trace.digest", 0, func(int) error { return digest(c.path(app)) }); err != nil {
			return err
		}
	}

	r.set("trace_overhead", wall/base-1, 0)
	r.set("core.unattributed_s", t.uncovered(passID), 0)
	zeroMetrics(r, sectionMetrics...)
	r.set("core.unstable_rows", 0, 0)
	r.set("memsys.stack.sampled_gap", 0, 0)
	setLayerMetrics(r, t, tot)
	r.set("memsys.trace.encode_s", t.total("memsys.trace.encode"), 0)
	r.set("memsys.trace.decode_s", t.total("memsys.trace.decode"), 0)
	r.set("memsys.trace.digest_s", t.total("memsys.trace.digest"), 0)
	r.set("memsys.trace.bytes_per_ref", float64(c.bytes)/float64(c.refs), 0)
	setRunnerMetrics(r, cn, 0)
	zeroMetrics(r, cacheIOMetrics...)
	zeroMetrics(r, serveMetrics...)
	return nil
}

// decodeAll opens a container and decodes every block.
func decodeAll(path string) error {
	tf, err := memsys.OpenTraceFile(path, nil)
	if err != nil {
		return err
	}
	defer tf.Close()
	for i := range tf.Index() {
		if _, err := tf.DecodeBlock(i); err != nil {
			return err
		}
	}
	return nil
}

// digest computes what ReplaySweep keys its replays by: SHA-256 over the
// container re-serialized as v1.
func digest(path string) error {
	tf, err := memsys.OpenTraceFile(path, nil)
	if err != nil {
		return err
	}
	defer tf.Close()
	_, err = tf.WriteTo(sha256.New())
	return err
}

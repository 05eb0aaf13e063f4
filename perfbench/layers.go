package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"splash2/internal/core"
	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// layerPlan is what a traced run re-times underneath the engine, on the
// workload's own inputs: one core.RecordApp per program, then
// memsys.ReplayMulti and memsys.New over the Figure-3 and Figure-7
// configurations the workload replays that trace through.
type layerPlan struct {
	apps       []string
	procs      int
	scale      core.Scale
	assocs     []int // Figure-3 set-associative associativities
	cacheSizes []int
	lineSizes  []int // Figure-7 line sizes at 1 MB, 4-way
	// stack also times the exact and sampled stack-distance passes the
	// fully-associative curves take, sampled at sampleSeed.
	stack      bool
	sampleSeed uint64
	// fourWay, when set, receives each program's 4-way Figure-3 miss
	// rates (percent, by cache size) from ReplayMulti.
	fourWay func(app string, missPct []float64)
}

// layerTotals are the counts behind the per-layer rates.
type layerTotals struct {
	refs       uint64  // references recorded
	replayRefs float64 // references × configurations replayed
	newAlloc   uint64  // heap bytes allocated by memsys.New
}

func (p layerPlan) configs(procs int) (fig3, fig7 []memsys.Config) {
	for _, a := range p.assocs {
		for _, cs := range p.cacheSizes {
			fig3 = append(fig3, memsys.Config{Procs: procs, CacheSize: cs, Assoc: a, LineSize: 64})
		}
	}
	for _, ls := range p.lineSizes {
		fig7 = append(fig7, memsys.Config{Procs: procs, CacheSize: 1 << 20, Assoc: 4, LineSize: ls})
	}
	return fig3, fig7
}

// run re-times every layer for each program in turn; only one trace is
// alive at a time.
func (p layerPlan) run(t *tracer, parent int) (layerTotals, error) {
	var tot layerTotals
	fig3, fig7 := p.configs(p.procs)
	for _, app := range p.apps {
		var tr *memsys.Trace
		_, err := t.do("mach.record", parent, func(int) (err error) {
			tr, _, err = core.RecordApp(app, p.procs, p.scale.Overrides(app))
			return err
		})
		if err != nil {
			return tot, fmt.Errorf("recording %s: %w", app, err)
		}
		refs := tr.Meta().Refs
		tot.refs += refs

		var st3 []memsys.Stats
		_, err = t.do("memsys.replay", parent, func(int) (err error) {
			if st3, err = memsys.ReplayMulti(tr, fig3); err != nil {
				return err
			}
			_, err = memsys.ReplayMulti(tr, fig7)
			return err
		})
		if err != nil {
			return tot, fmt.Errorf("replaying %s: %w", app, err)
		}
		tot.replayRefs += float64(refs) * float64(len(fig3)+len(fig7))
		if p.fourWay != nil {
			var row []float64
			for i, cfg := range fig3 {
				if cfg.Assoc == 4 {
					row = append(row, 100*st3[i].MissRate())
				}
			}
			p.fourWay(app, row)
		}

		a0 := allocBytes()
		_, err = t.do("memsys.new", parent, func(int) error {
			for _, cfg := range append(append([]memsys.Config(nil), fig3...), fig7...) {
				if _, err := memsys.New(cfg, tr.HomeFn(cfg.LineSize)); err != nil {
					return err
				}
			}
			return nil
		})
		tot.newAlloc += allocBytes() - a0
		if err != nil {
			return tot, err
		}

		if p.stack {
			maxSize := p.cacheSizes[len(p.cacheSizes)-1]
			_, err = t.do("memsys.stack.exact", parent, func(int) error {
				_, err := memsys.StackDistances(tr, 64, maxSize)
				return err
			})
			if err != nil {
				return tot, err
			}
			_, err = t.do("memsys.stack.sampled", parent, func(int) error {
				_, err := memsys.SampledStackDistances(tr, 64, maxSize, memsys.SampledOptions{
					Rate: 0.01, Seed: p.sampleSeed, ExactLines: memsys.DefaultExactLines,
				})
				return err
			})
			if err != nil {
				return tot, err
			}
		}
	}
	return tot, nil
}

// setLayerMetrics records the mach and memsys rows from a layer re-run.
func setLayerMetrics(r *result, t *tracer, tot layerTotals) {
	busy := t.total("mach.record")
	r.set("mach.busy_s", busy, 0)
	r.set("mach.refs", float64(tot.refs), 0)
	r.set("mach.mrefs_per_s", rate(float64(tot.refs), busy), 0)
	replay := t.total("memsys.replay")
	r.set("memsys.replay.busy_s", replay, 0)
	r.set("memsys.replay.mrefs_per_s", rate(tot.replayRefs, replay), 0)
	r.set("memsys.replay.new_s", t.total("memsys.new"), 0)
	r.set("memsys.replay.alloc_mb", float64(tot.newAlloc)/1e6, 0)
	r.set("memsys.stack.exact_s", t.total("memsys.stack.exact"), 0)
	r.set("memsys.stack.sampled_s", t.total("memsys.stack.sampled"), 0)
}

// rate is millions of items per second (0 when nothing was timed).
func rate(items, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return items / seconds / 1e6
}

// cacheEntry is the part of a runner cache entry's on-disk envelope the
// benchmark reads.
type cacheEntry struct {
	Value json.RawMessage `json:"value"`
}

// readCacheEntries returns the result values stored in a runner cache
// directory, keyed by their path relative to it. Journals, spilled
// traces, leases and temporaries are skipped.
func readCacheEntries(dir string) (names []string, values [][]byte, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			if path != dir && len(d.Name()) != 2 {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".json") || len(filepath.Dir(rel)) != 2 {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e cacheEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return fmt.Errorf("cache entry %s: %w", rel, err)
		}
		names = append(names, rel)
		values = append(values, e.Value)
		return nil
	})
	return names, values, err
}

// timeCacheIO stores a finished run's own result values through
// runner.Cache.Put into a fresh cache at dst, then reads each back with
// Cache.Get, checking the bytes survive. The entries are re-keyed by
// their source path: the stored values and their sizes are the run's.
func timeCacheIO(r *result, t *tracer, parent int, src, dst string) error {
	names, values, err := readCacheEntries(src)
	if err != nil {
		return err
	}
	c, err := runner.OpenCache(dst)
	if err != nil {
		return err
	}
	ctx := context.Background()
	keys := make([]runner.Key, len(names))
	for i, n := range names {
		keys[i] = runner.KeyOf("perfbench-entry", n)
	}
	put, err := t.do("runner.cache_put", parent, func(int) error {
		for i := range keys {
			if err := c.Put(ctx, keys[i], values[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	got := make([]any, len(keys))
	get, _ := t.do("runner.cache_get", parent, func(int) error {
		for i := range keys {
			got[i], _ = c.Get(ctx, keys[i], func(b []byte) (any, error) { return b, nil })
		}
		return nil
	})
	for i := range keys {
		b, _ := got[i].([]byte)
		r.verify("runner cache round trip", checkSameBody(names[i], values[i], b))
	}
	r.set("runner.cache_put_s", put, len(keys))
	r.set("runner.cache_get_s", get, len(keys))
	return nil
}

// setRunnerMetrics records the scheduling counters of the engines a run
// used, summed.
func setRunnerMetrics(r *result, c runner.Counts, journalAppends int64) {
	served := c.CacheHits + c.MemoHits
	r.set("runner.executed", float64(c.Executed), 0)
	r.set("runner.served", float64(served), 0)
	ratio := 0.0
	if served+c.Executed > 0 {
		ratio = float64(served) / float64(served+c.Executed)
	}
	r.set("runner.hit_ratio", ratio, 0)
	r.set("runner.lease_acquired", float64(c.LeaseAcquired), 0)
	r.set("runner.journal_appends", float64(journalAppends), 0)
}

// addCounts sums two counter snapshots.
func addCounts(a, b runner.Counts) runner.Counts {
	a.Submitted += b.Submitted
	a.Executed += b.Executed
	a.CacheHits += b.CacheHits
	a.MemoHits += b.MemoHits
	a.Failed += b.Failed
	a.Skipped += b.Skipped
	a.LeaseAcquired += b.LeaseAcquired
	return a
}

// zeroMetrics records 0 for every listed metric: layers the workload
// does not run.
func zeroMetrics(r *result, names ...string) {
	for _, n := range names {
		r.set(n, 0, 0)
	}
}

var (
	sectionMetrics = []string{
		"core.section.table1_s", "core.section.speedups_s", "core.section.sync_s",
		"core.section.workingsets_s", "core.section.sampled_s", "core.section.traffic_s",
		"core.section.table3_s", "core.section.linesize_s", "core.render_s",
	}
	traceFileMetrics = []string{
		"memsys.trace.encode_s", "memsys.trace.decode_s", "memsys.trace.digest_s", "memsys.trace.bytes_per_ref",
	}
	serveMetrics   = []string{"serve.flights", "serve.coalesced_ratio", "serve.shed", "serve.server_share"}
	cacheIOMetrics = []string{"runner.cache_put_s", "runner.cache_get_s"}
)

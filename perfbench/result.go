package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one measured value. N is the number of samples behind it
// (runs, passes or requests); 0 for a single measurement. Samples keeps
// the per-pass values a median was taken over.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// check is the tally of one output check: how often it ran, how often it
// failed, and the first failure.
type check struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	First     string `json:"first,omitempty"`
}

// result is everything one run measured. The result file holds all of
// it; the result line printed last holds the subset BENCHMARK.json lists.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []*check          `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(workload string, seed int64, traced bool, seconds float64) *result {
	r := &result{Workload: workload, Seed: seed, Seconds: seconds, Metrics: map[string]metric{}}
	if traced {
		r.Trace = 1
	}
	return r
}

// verify records one outcome of the named check: err nil passes.
func (r *result) verify(name string, err error) {
	var c *check
	for _, have := range r.Checks {
		if have.Name == name {
			c = have
		}
	}
	if c == nil {
		c = &check{Name: name}
		r.Checks = append(r.Checks, c)
	}
	c.Attempted++
	r.Attempted++
	if err != nil {
		c.Failed++
		r.Failed++
		if c.First == "" {
			c.First = err.Error()
		}
	}
}

// ops counts operations the program performed (jobs, requests) and how
// many of them failed.
func (r *result) ops(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// set records a catalogue metric; an unknown name is a benchmark bug.
func (r *result) set(name string, v float64, n int) {
	def, ok := metricByName(name)
	if !ok {
		panic("perfbench: metric not in the catalogue: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: def.Unit, N: n}
}

// setMedian records the median of per-pass samples.
func (r *result) setMedian(name string, samples []float64) {
	r.set(name, median(samples), len(samples))
	m := r.Metrics[name]
	m.Samples = samples
	r.Metrics[name] = m
}

// finish closes the tally and checks the run emitted exactly the
// metrics its workload promises.
func (r *result) finish() error {
	if r.Attempted > 0 {
		r.set("error_ratio", float64(r.Failed)/float64(r.Attempted), int(r.Attempted))
	}
	if r.Trace == 1 {
		delete(r.Metrics, "error_ratio")
	}
	want := expectedMetrics(r.Workload, r.Trace == 1)
	var missing []string
	for _, name := range want {
		v, ok := r.Metrics[name]
		if !ok {
			missing = append(missing, name)
		} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not emit %s", r.Workload, strings.Join(missing, ", "))
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("workload %s emitted %d metrics, want %d", r.Workload, len(r.Metrics), len(want))
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0
	return nil
}

// lineJSON is the result line: the last line of standard output.
type lineJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]lineMetricJ `json:"metrics"`
}

type lineMetricJ struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one human-readable line per metric and check, then the
// result line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-28s %14.6g %-7s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "check  %-28s %d/%d passed %s\n", c.Name, c.Attempted-c.Failed, c.Attempted, c.First)
	}
	line := lineJSON{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetricJ{}}
	for _, name := range lineMetrics(r.Trace == 1) {
		m := r.Metrics[name]
		line.Metrics[name] = lineMetricJ{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// save writes the result file (and, for a traced run, the span file
// beside it) into dir and returns the result file's path.
func (r *result) save(dir, stem string, spans *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, stem+".json")
	if err := writeJSON(path, r); err != nil {
		return "", err
	}
	if spans != nil {
		if err := writeSpans(filepath.Join(dir, stem+".spans.jsonl"), spans.snapshot()); err != nil {
			return "", err
		}
	}
	return path, nil
}

// writeSpans writes one JSON object per span per line.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadResults reads every result file in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			continue
		}
		out = append(out, &r)
	}
	return out, nil
}

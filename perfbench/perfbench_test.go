package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"splash2/internal/core"
	"splash2/internal/memsys"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
				t.Errorf("metric name %q", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better %q", m.Name, m.Better)
			}
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json to the
// workload table and the metric catalogue the program emits from.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"perfbench"}) || len(b.Command) == 0 || b.Command[len(b.Command)-1] != "perfbench/run.sh" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var gate []metricDef
	for _, m := range endToEnd {
		if m.Gate {
			gate = append(gate, m)
		}
	}
	if len(b.EndToEnd) != len(gate) {
		t.Fatalf("%d end_to_end metrics, %d gate metrics", len(b.EndToEnd), len(gate))
	}
	for i, m := range b.EndToEnd {
		g := gate[i]
		if m.Name != g.Name || m.Unit != g.Unit || m.Better != g.Better || m.Bound != g.Bound {
			t.Errorf("end_to_end %d: %+v, catalogue %+v", i, m, g)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, %d in the catalogue", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		p := perLayer[i]
		if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("per_layer %d: %+v, catalogue %+v", i, m, p)
		}
	}
}

// TestWorkloadsEmitTheirMetrics runs every workload, untraced and
// traced, on two programs and holds each to exactly the metrics it
// promises, with every output check passing.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	apps := []string{"fft", "lu"}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/trace%d", w.name, map[bool]int{false: 0, true: 1}[traced]), func(t *testing.T) {
				res, spans, err := runWorkload(w, 3, 0.5, traced, apps, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				if want := expectedMetrics(w.name, traced); !sameSet(got, want) {
					t.Errorf("emitted %v, want %v", got, want)
				}
				if !res.Correct {
					t.Errorf("checks failed: %+v", res.Checks)
				}
				if traced != (spans != nil) {
					t.Errorf("spans recorded: %v", spans != nil)
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]map[string]any
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatal(err)
				}
				var lineNames []string
				for name, m := range line.Metrics {
					lineNames = append(lineNames, name)
					if len(m) != 2 || m["unit"] == nil || m["value"] == nil {
						t.Errorf("result-line metric %s is %v", name, m)
					}
				}
				if !sameSet(lineNames, lineMetrics(traced)) {
					t.Errorf("result line has %v", lineNames)
				}
			})
		}
	}
}

func sameSet(a, b []string) bool {
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

func TestServeMixOrderFromSeed(t *testing.T) {
	a, b := mixRequests(core.Suite, 7), mixRequests(core.Suite, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request orders")
	}
	if len(a) != 2*len(core.Suite) {
		t.Fatalf("%d requests, want %d", len(a), 2*len(core.Suite))
	}
	c := mixRequests(core.Suite, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same order")
	}
	set := func(l []mixRequest) map[mixRequest]bool {
		m := map[mixRequest]bool{}
		for _, q := range l {
			m[q] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(a), set(c)) {
		t.Error("the seed changed which requests are sent, not only their order")
	}
	if !reflect.DeepEqual(sweepOrder(core.Suite, 5), sweepOrder(core.Suite, 5)) {
		t.Error("the same seed gave two trace-sweep orders")
	}
}

// TestSectionedReportMatchesReport holds the traced run's section-by-
// section report to the bytes Engine.Report writes. Both run on one
// engine, so the second is served from the memo and nondeterministic
// programs cannot differ.
func TestSectionedReportMatchesReport(t *testing.T) {
	e, err := core.NewEngine(core.EngineOptions{Workers: workers, ExecMode: core.RecordReplayExec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	o := core.ReportOptions{
		Apps: []string{"fft", "lu"}, Procs: 4, ProcList: []int{1, 4}, Scale: core.SweepScale,
		AllAssocs: true, SampleRate: 0.01, SampleSeed: 3,
	}.WithDefaults()
	var want, got bytes.Buffer
	if err := e.Report(&want, o); err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	out, err := sectionedReport(e, &got, o, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("sectioned report differs from Engine.Report in %d lines", diffLines(got.String(), want.String()))
	}
	if len(out.ws) == 0 || len(out.sw) == 0 {
		t.Error("sectioned report returned no curves")
	}
	for _, s := range []string{"table1", "speedups", "sync", "workingsets", "sampled", "traffic", "table3", "linesize"} {
		if tr.total("core.section."+s) <= 0 {
			t.Errorf("no time in section %s", s)
		}
	}
}

// Each output check must fail on a deliberately corrupted result.

func TestCheckNoFailedCells(t *testing.T) {
	if err := checkNoFailedCells("fft  1.00 2.00\nlu  1.00 1.90\n"); err != nil {
		t.Fatal(err)
	}
	if err := checkNoFailedCells("fft  1.00 2.00\nlu  FAILED(run lu: boom)\n"); err == nil {
		t.Fatal("a FAILED( cell passed")
	}
}

func TestCheckFourWayEqual(t *testing.T) {
	curves := []core.MissCurve{
		{App: "fft", Assoc: 1, MissRate: []float64{9, 8}},
		{App: "fft", Assoc: 4, MissRate: []float64{5, 2.5}},
	}
	if err := checkFourWayEqual("fft", curves, []float64{5, 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := checkFourWayEqual("fft", curves, []float64{5, 2.5000001}); err == nil {
		t.Fatal("a corrupted 4-way row passed")
	}
	if err := checkFourWayEqual("lu", curves, []float64{5, 2.5}); err == nil {
		t.Fatal("a missing row passed")
	}
}

func TestCheckStatsEqual(t *testing.T) {
	tr, _, err := core.RecordApp("fft", 4, core.SweepScale.Overrides("fft"))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sweepConfigs(tr.Meta().MinProcs)[:3]
	a, err := memsys.ReplayMulti(tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := memsys.ReplayMulti(tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStatsEqual("fft", a, b); err != nil {
		t.Fatal(err)
	}
	b[1].Traffic.LocalData++
	if err := checkStatsEqual("fft", a, b); err == nil {
		t.Fatal("corrupted replay statistics passed")
	}
	if err := checkStatsEqual("fft", a, b[:2]); err == nil {
		t.Fatal("a missing configuration passed")
	}
}

func TestCheckResponses(t *testing.T) {
	body := []byte(`{"procs":32}`)
	if err := checkSameBody("q", body, []byte(`{"procs":32}`)); err != nil {
		t.Fatal(err)
	}
	if err := checkSameBody("q", body, []byte(`{"procs":33}`)); err == nil {
		t.Fatal("a corrupted body passed")
	}
	if err := checkStatus("q", 200, 200); err != nil {
		t.Fatal(err)
	}
	if err := checkStatus("q", 200, 429); err == nil {
		t.Fatal("a 429 passed")
	}
	if err := checkNotModified("q", 304, nil, `"abc"`, `"abc"`); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		status int
		body   []byte
		etag   string
	}{
		{200, nil, `"abc"`}, {304, []byte("x"), `"abc"`}, {304, nil, `"abd"`},
	} {
		if err := checkNotModified("q", bad.status, bad.body, bad.etag, `"abc"`); err == nil {
			t.Errorf("corrupted 304 %+v passed", bad)
		}
	}
}

func TestSampledGap(t *testing.T) {
	exact := []core.MissCurve{{App: "fft", Assoc: memsys.FullyAssoc, CacheSizes: []int{1024, 2048}, MissRate: []float64{10, 5}}}
	sampled := []core.SampledCurve{{App: "fft", CacheSizes: []int{1024, 2048}, MissRate: []float64{10.5, 8}}}
	gap, where, err := sampledGap(exact, sampled)
	if err != nil || math.Abs(gap-0.03) > 1e-12 || !strings.Contains(where, "2048") {
		t.Fatalf("gap %v at %q, err %v; want 0.03 at 2048 B", gap, where, err)
	}
	if _, _, err := sampledGap(exact, nil); err == nil {
		t.Error("a report without sampled curves passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 2, 3, 4, 5, 6, 7, 8, 9, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v %v %v", q1, q2, q3)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples has fewer than ten beyond it but was accepted")
	}
	if v, ok := percentile(xs[:20], 50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v", v, ok)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(seed int64, wall float64) *result {
		r := newResult(wReportSweep, seed, false, 10)
		r.set("wall_s", wall, 1)
		return r
	}
	var base, same, fast, noisy []*result
	for i := 0; i < 10; i++ {
		w := 2 + 0.01*float64(i%3)
		base = append(base, mk(int64(i), w))
		same = append(same, mk(int64(i), w+0.001))
		fast = append(fast, mk(int64(i), w/2))
		noisy = append(noisy, mk(int64(i), w*float64(1+i%2)))
	}
	verdict := func(b []*result) comparison {
		rows := compare(base, b)
		if len(rows) != 1 {
			t.Fatalf("%d rows", len(rows))
		}
		return rows[0]
	}
	if c := verdict(same); c.verdict != "within bound" {
		t.Errorf("same: %s", c.verdict)
	}
	c := verdict(fast)
	if c.verdict != "improved" || c.won != 10 || c.pairs != 10 || c.ratio < 1.9 || c.lo > c.ratio || c.hi < c.ratio {
		t.Errorf("fast: %+v", c)
	}
	if c := verdict(noisy); c.verdict != "unresolved" {
		t.Errorf("noisy: %s", c.verdict)
	}
	var out bytes.Buffer
	printComparison(&out, []comparison{c})
	if !regexp.MustCompile(`\d\.\d\dx \[\d\.\d\d, \d\.\d\d\] @95%`).MatchString(out.String()) {
		t.Errorf("no bootstrap ratio in %q", out.String())
	}
}

func TestUnionLength(t *testing.T) {
	if got := unionLength([][2]float64{{0, 1}, {0.5, 2}, {3, 4}}); got != 3 {
		t.Errorf("union = %v, want 3", got)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", wReportSweep, "--trace", "2"}, {"compare", "one"}} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}

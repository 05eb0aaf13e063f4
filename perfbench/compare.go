package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
)

// Compare mode: two result sets (directories of result files, the
// baseline first), and for each workload and each end-to-end metric
// both sides' medians and quartiles, the share of pairs the candidate
// won, a bootstrap ratio with its 95% interval, and a verdict judged
// against the metric's bound.
//
//	perfbench compare .perfbench/parent .perfbench/change

// bootstrapRounds is the number of resamples behind each interval.
const bootstrapRounds = 2000

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <baseline-results-dir> <candidate-results-dir>")
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rows := compare(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "perfbench: no workload has untraced results on both sides")
		return 1
	}
	printComparison(stdout, rows)
	return 0
}

// side summarizes one metric's values on one side.
type side struct {
	q1, med, q3 float64
	n           int
}

// comparison is one workload × metric row.
type comparison struct {
	workload, metric, unit string
	a, b                   side
	won, pairs             int
	ratio, lo, hi          float64
	verdict                string
}

// compare pairs the untraced results of the two sets by workload and
// seed (runs of one seed pair in file order).
func compare(a, b []*result) []comparison {
	var out []comparison
	for _, w := range allWorkloads {
		ra, rb := untraced(a, w), untraced(b, w)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		pa, pb := pairBySeed(ra, rb)
		for _, def := range endToEnd {
			if !def.appliesTo(w) {
				continue
			}
			va, vb := values(ra, def.Name), values(rb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			out = append(out, compareMetric(w, def, va, vb, values(pa, def.Name), values(pb, def.Name)))
		}
	}
	return out
}

func untraced(rs []*result, workload string) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

// pairBySeed returns equal-length slices pairing runs of the same seed.
func pairBySeed(a, b []*result) (pa, pb []*result) {
	used := make([]bool, len(b))
	for _, x := range a {
		for j, y := range b {
			if !used[j] && y.Seed == x.Seed {
				used[j] = true
				pa, pb = append(pa, x), append(pb, y)
				break
			}
		}
	}
	return pa, pb
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summarize(xs []float64) side {
	q1, q2, q3 := quartiles(xs)
	return side{q1: q1, med: q2, q3: q3, n: len(xs)}
}

// compareMetric judges one metric. The ratio reads as the candidate's
// gain: baseline over candidate for lower-is-better metrics, the
// inverse otherwise, so above 1 is better either way.
func compareMetric(w string, def metricDef, va, vb, pairA, pairB []float64) comparison {
	c := comparison{workload: w, metric: def.Name, unit: def.Unit, a: summarize(va), b: summarize(vb)}
	lower := def.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	for i := range pairA {
		c.pairs++
		if better(pairB[i], pairA[i]) {
			c.won++
		}
	}
	if c.a.med != 0 && c.b.med != 0 {
		if lower {
			c.ratio, c.lo, c.hi = bootstrapRatio(va, vb, bootstrapRounds)
		} else {
			c.ratio, c.lo, c.hi = bootstrapRatio(vb, va, bootstrapRounds)
		}
	}

	// Every candidate run better than every baseline run settles the
	// direction even when the spread is wide.
	sa, sb := sorted(va), sorted(vb)
	dominates := better(sb[len(sb)-1], sa[0]) // worst candidate beats best baseline
	if !lower {
		dominates = better(sb[0], sa[len(sa)-1])
	}
	worse := c.b.med - c.a.med
	if !lower {
		worse = -worse
	}
	switch {
	case def.Bound == 0:
		c.verdict = "exact"
		if c.a.med != c.b.med {
			c.verdict = "changed"
		}
	case (spread(va) > def.Bound || spread(vb) > def.Bound) && !dominates:
		c.verdict = "unresolved"
	case c.a.med != 0 && worse/absf(c.a.med) > def.Bound:
		c.verdict = "regressed"
	case c.pairs > 0 && float64(c.won) >= 0.9*float64(c.pairs) && -worse > c.a.q3-c.a.q1:
		c.verdict = "improved"
	default:
		c.verdict = "within bound"
	}
	return c
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func printComparison(w io.Writer, rows []comparison) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Fprintf(w, "%-15s %-14s %-6s %-34s %-34s %-7s %-28s %s\n",
		"workload", "metric", "unit", "baseline median [q1, q3] (n)", "candidate median [q1, q3] (n)", "won", "ratio", "verdict")
	for _, c := range rows {
		ratio := "n/a"
		if c.ratio != 0 {
			ratio = fmt.Sprintf("%.2fx [%.2f, %.2f] @95%%", c.ratio, c.lo, c.hi)
		}
		won := "n/a"
		if c.pairs > 0 {
			won = fmt.Sprintf("%d/%d", c.won, c.pairs)
		}
		fmt.Fprintf(w, "%-15s %-14s %-6s %-34s %-34s %-7s %-28s %s\n",
			c.workload, c.metric, c.unit, fmtSide(c.a), fmtSide(c.b), won, ratio, c.verdict)
	}
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.med, s.q1, s.q3, s.n)
}

package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one run share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the run began
	End    float64 `json:"end"`
	Run    string  `json:"run"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer times calls without recording them, which is how untraced runs
// use the same code paths.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// do runs fn inside a span named name under parent and returns the
// span's duration in seconds; fn receives the span's ID to parent
// nested spans.
func (t *tracer) do(name string, parent int, fn func(id int) error) (float64, error) {
	if t == nil {
		start := time.Now()
		err := fn(0)
		return time.Since(start).Seconds(), err
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run})
	t.mu.Unlock()
	start := time.Since(t.t0).Seconds()
	err := fn(id)
	end := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
	return end - start, err
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// uncovered returns how much of span id's interval no child span
// covers: the time a traced pass spent outside every layer it timed.
func (t *tracer) uncovered(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.spans[id-1]
	var kids [][2]float64
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, [2]float64{s.Start, s.End})
		}
	}
	return root.dur() - unionLength(kids)
}

// unionLength is the total length of a set of possibly overlapping
// intervals.
func unionLength(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, lo, hi float64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			lo, hi, open = x[0], x[1], true
		case x[0] > hi:
			sum += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if open {
		sum += hi - lo
	}
	return sum
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// allocBytes reads the runtime's cumulative heap-allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

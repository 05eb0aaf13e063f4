package memsys

import (
	"bytes"
	"strings"
	"testing"
)

// recProcLimit pins the satellite fix: ids 0..126 are accepted, id 127
// (the reset marker) and negatives panic, and the panic message agrees
// with the enforced limit.
func TestRecorderProcLimit(t *testing.T) {
	tr := recordInOrder([]uint64{
		traceEvent(0, 8, false),
		traceEvent(126, 16, true), // highest legal id
	}, nil)
	if got := tr.MaxProc(); got != 126 {
		t.Fatalf("MaxProc=%d, want 126", got)
	}
	for _, proc := range []int{127, 128, -1} {
		proc := proc
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic for proc %d", proc)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				if !strings.Contains(msg, "at most 127 processors (ids 0-126") {
					t.Fatalf("panic message %q does not state the real limit", msg)
				}
			}()
			NewRecorder(64).RecordBatch(proc, 0, []uint64{0})
		}()
	}
}

// serialize renders a trace to bytes for equality comparison.
func serialize(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The merge must depend only on (epoch, proc, local index) — never on
// the real-time order RecordBatch calls arrived in.
func TestRecordBatchMergeIsScheduleIndependent(t *testing.T) {
	type batch struct {
		proc   int
		epoch  uint64
		events []uint64
	}
	batches := []batch{
		{0, 1, []uint64{traceEvent(0, 64, false), traceEvent(0, 72, true)}},
		{1, 1, []uint64{traceEvent(1, 128, false)}},
		{0, 2, []uint64{traceEvent(0, 80, false)}},
		{2, 2, []uint64{traceEvent(2, 256, true), traceEvent(2, 264, false)}},
		{1, 3, []uint64{traceEvent(1, 136, true)}},
	}
	record := func(order []int) *Trace {
		rec := NewRecorder(64)
		rec.RecordResetAt(2) // between epochs 1 and 2
		for _, i := range order {
			b := batches[i]
			rec.RecordBatch(b.proc, b.epoch, b.events)
		}
		return rec.Finish(nil)
	}
	want := serialize(t, record([]int{0, 1, 2, 3, 4}))
	for _, order := range [][]int{
		{4, 3, 2, 1, 0},
		{1, 4, 0, 3, 2},
		{3, 0, 4, 1, 2},
	} {
		if got := serialize(t, record(order)); !bytes.Equal(got, want) {
			t.Fatalf("merge differs for arrival order %v", order)
		}
	}
}

// Within one epoch the merge orders by processor id, and a reset marker
// at epoch E precedes every event of epoch E.
func TestRecordBatchMergeOrder(t *testing.T) {
	rec := NewRecorder(64)
	e0, e1, e2 := traceEvent(0, 8, false), traceEvent(1, 16, false), traceEvent(2, 24, true)
	rec.RecordBatch(2, 1, []uint64{e2})
	rec.RecordBatch(0, 1, []uint64{e0})
	rec.RecordBatch(1, 1, []uint64{e1})
	rec.RecordResetAt(1)
	tr := rec.Finish(nil)
	want := []uint64{resetMarker, e0, e1, e2}
	if len(tr.events) != len(want) {
		t.Fatalf("got %d events, want %d", len(tr.events), len(want))
	}
	for i := range want {
		if tr.events[i] != want[i] {
			t.Fatalf("event %d = %#x, want %#x", i, tr.events[i], want[i])
		}
	}
}

// Multiple buffer-full flushes of one processor inside a single epoch
// must keep their append order (the processor's program order).
func TestRecordBatchSameEpochRunsKeepOrder(t *testing.T) {
	rec := NewRecorder(64)
	a := traceEvent(0, 8, false)
	b := traceEvent(0, 16, true)
	c := traceEvent(0, 24, false)
	rec.RecordBatch(0, 5, []uint64{a})
	rec.RecordBatch(0, 5, []uint64{b, c})
	tr := rec.Finish(nil)
	want := []uint64{a, b, c}
	for i := range want {
		if tr.events[i] != want[i] {
			t.Fatalf("event %d = %#x, want %#x", i, tr.events[i], want[i])
		}
	}
}

// AccessBatch must produce exactly the statistics of per-event AccessAt
// calls in the same order.
func TestAccessBatchMatchesAccessAt(t *testing.T) {
	cfg := Config{Procs: 4, CacheSize: 1024, Assoc: 2, LineSize: 64}
	mk := func() *System {
		s, err := New(cfg, func(uint64) int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	single, batched := mk(), mk()

	// A per-processor access schedule with sharing and write-backs; the
	// global interleaving (round-robin by processor) is identical on both
	// systems, only the entry point differs.
	perProc := make([][]uint64, 4)
	times := make([][]uint64, 4)
	for p := 0; p < 4; p++ {
		var now uint64
		for i := 0; i < 200; i++ {
			a := Addr((i*13+p*5)%97) * WordBytes
			w := (i+p)%3 == 0
			now += uint64(p + i%7 + 1)
			perProc[p] = append(perProc[p], traceEvent(p, a, w))
			times[p] = append(times[p], now)
		}
	}
	// single: batches of one event; batched: one call per processor run
	// of 50 events. Both present the same per-proc order; the global
	// orders differ (both legal), so compare per-processor counters and
	// protocol invariants rather than global-order-dependent stats.
	for p := 0; p < 4; p++ {
		for i, e := range perProc[p] {
			single.AccessAt(p, Addr(e>>8), e&1 == 1, times[p][i])
		}
		for lo := 0; lo < len(perProc[p]); lo += 50 {
			batched.AccessBatch(p, perProc[p][lo:lo+50], times[p][lo:lo+50])
		}
	}
	ss, bs := single.Stats(), batched.Stats()
	for p := 0; p < 4; p++ {
		if ss.Procs[p].Reads != bs.Procs[p].Reads || ss.Procs[p].Writes != bs.Procs[p].Writes {
			t.Fatalf("proc %d reads/writes differ: single %+v batched %+v", p, ss.Procs[p], bs.Procs[p])
		}
	}
	if err := batched.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Same interleaving presented to both entry points must agree on
	// everything, including miss classification: drive a second pair in
	// identical global order with batch size 1 vs AccessAt.
	s2, b2 := mk(), mk()
	for i := 0; i < 200; i++ {
		for p := 0; p < 4; p++ {
			e := perProc[p][i]
			s2.AccessAt(p, Addr(e>>8), e&1 == 1, times[p][i])
			b2.AccessBatch(p, perProc[p][i:i+1], times[p][i:i+1])
		}
	}
	st2, bt2 := s2.Stats(), b2.Stats()
	for p := 0; p < 4; p++ {
		if st2.Procs[p] != bt2.Procs[p] {
			t.Fatalf("proc %d stats differ under identical interleaving:\nAccessAt:    %+v\nAccessBatch: %+v", p, st2.Procs[p], bt2.Procs[p])
		}
	}
}

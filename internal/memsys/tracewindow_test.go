package memsys

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"splash2/internal/fault"
)

// collectEvents drains a source's block stream into one flat slice.
func collectEvents(t *testing.T, src TraceSource) []uint64 {
	t.Helper()
	var out []uint64
	if err := src.blocks(func(events []uint64) error {
		out = append(out, events...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEpochWindowEquivalence: the in-memory and streaming epoch-window
// views must yield the identical marker-free event subsequence, with
// matching metadata, over a recorded trace and a v1 file's trace,
// whose spans number epochs by reset-marker eras.
func TestEpochWindowEquivalence(t *testing.T) {
	var v1 bytes.Buffer
	if _, err := buildSharingTrace(9, 4, 20000, true).WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	flat, err := ReadTrace(&v1)
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*Trace{
		"v1 marker eras": flat,
		"batched":        buildBatchedTrace(10, 4, 20000, 4),
	}
	for name, tr := range traces {
		tf := openV2(t, writeV2Bytes(t, tr))
		epochs := tr.Meta().Markers + 1
		for _, rng := range [][2]uint64{{0, 0}, {1, 1}, {0, ^uint64(0)}, {1, 2}, {epochs, epochs + 3}} {
			memWin, err := EpochWindow(tr, rng[0], rng[1])
			if err != nil {
				t.Fatal(err)
			}
			fileWin, err := EpochWindow(tf, rng[0], rng[1])
			if err != nil {
				t.Fatal(err)
			}
			memEvents := collectEvents(t, memWin)
			fileEvents := collectEvents(t, fileWin)
			if !reflect.DeepEqual(memEvents, fileEvents) {
				t.Fatalf("%s window %v: in-memory view yields %d events, streaming view %d (or order differs)",
					name, rng, len(memEvents), len(fileEvents))
			}
			for _, e := range memEvents {
				if e == resetMarker {
					t.Fatalf("%s window %v contains a reset marker", name, rng)
				}
			}
			if got := memWin.Meta().Refs; got != uint64(len(memEvents)) {
				t.Fatalf("%s window %v: meta says %d refs, stream has %d", name, rng, got, len(memEvents))
			}
			if memWin.Meta().Refs != fileWin.Meta().Refs {
				t.Fatalf("%s window %v: meta refs differ (%d vs %d)", name, rng, memWin.Meta().Refs, fileWin.Meta().Refs)
			}
			if rng[0] >= epochs && len(memEvents) != 0 {
				t.Fatalf("%s window %v beyond last epoch yields %d events", name, rng, len(memEvents))
			}
		}
	}
}

// TestEpochWindowSkipsBlocks: a streaming window must never read an
// out-of-range block — enforced by arming a read fault on every block
// outside the window, which would fail the replay if touched.
func TestEpochWindowSkipsBlocks(t *testing.T) {
	tr := buildBatchedTrace(5, 4, 30000, 4)
	data := writeV2Bytes(t, tr)
	plain := openV2(t, data)
	const lo, hi = 1, 2
	var rules []fault.Rule
	for i, info := range plain.Index() {
		if info.Marker || info.Epoch < lo || info.Epoch > hi {
			rules = append(rules, fault.Rule{Pattern: "trace.read.block:" + strconv.Itoa(i), Action: fault.Error})
		}
	}
	if len(rules) == 0 {
		t.Fatal("no out-of-range blocks; test trace too small")
	}
	armed, err := NewTraceFile(bytes.NewReader(data), int64(len(data)), fault.New(1, rules...))
	if err != nil {
		t.Fatal(err)
	}
	win, err := EpochWindow(armed, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got := collectEvents(t, win)
	wantWin, err := EpochWindow(plain, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if want := collectEvents(t, wantWin); !reflect.DeepEqual(got, want) {
		t.Fatalf("armed window replayed %d events, want %d", len(got), len(want))
	}
}

// TestEpochWindowValidation: empty ranges and unsupported sources.
func TestEpochWindowValidation(t *testing.T) {
	tr := buildSharingTrace(1, 2, 500, false)
	if _, err := EpochWindow(tr, 3, 2); err == nil {
		t.Fatal("inverted epoch range accepted")
	}
	win, err := EpochWindow(tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EpochWindow(win, 0, 0); err == nil {
		t.Fatal("windowing a window accepted (not a Trace or TraceFile)")
	}
}

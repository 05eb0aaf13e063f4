package memsys

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// recordInOrder records packed events (traceEvent, or resetMarker for
// a measurement reset) through the recorder's batched capture path in
// exactly the given order: each event gets its own synchronization
// epoch, so the deterministic merge cannot reorder them. It panics if
// the merged trace is not the given sequence.
func recordInOrder(events []uint64, homes []int32) *Trace {
	rec := NewRecorder(64)
	for i, e := range events {
		if e == resetMarker {
			rec.RecordResetAt(uint64(i))
		} else {
			rec.RecordBatch(int(e>>1&0x7f), uint64(i), []uint64{e})
		}
	}
	tr := rec.Finish(homes)
	if !slices.Equal(tr.events, events) {
		panic("recordInOrder: merged trace differs from the recorded event sequence")
	}
	return tr
}

func buildTrace(seed int64, procs, events int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	var evs []uint64
	for i := 0; i < events; i++ {
		evs = append(evs, traceEvent(rng.Intn(procs), Addr(rng.Intn(4096))&^7, rng.Intn(3) == 0))
	}
	homes := make([]int32, 64)
	for i := range homes {
		homes[i] = int32(i % procs)
	}
	return recordInOrder(evs, homes)
}

func TestTraceRoundTripSerialization(t *testing.T) {
	tr := buildTrace(1, 4, 500)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.homeLineSize != tr.homeLineSize {
		t.Fatalf("round trip mismatch: %d/%d events", back.Len(), tr.Len())
	}
	for i := range tr.events {
		if tr.events[i] != back.events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	for i := range tr.homes {
		if tr.homes[i] != back.homes[i] {
			t.Fatalf("home %d differs", i)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// Property: replaying a trace through a memory system produces exactly the
// same statistics as feeding the same accesses directly.
func TestReplayEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		const procs = 4
		rng := rand.New(rand.NewSource(seed))
		var evs []uint64
		homes := make([]int32, 64)
		for i := range homes {
			homes[i] = int32(i % procs)
		}
		cfg := Config{Procs: procs, CacheSize: 2048, Assoc: 2, LineSize: 64, OverheadBytes: 8}
		direct, err := New(cfg, func(line uint64) int {
			if line < uint64(len(homes)) {
				return int(homes[line])
			}
			return 0
		})
		if err != nil {
			return false
		}
		for i := 0; i < 1200; i++ {
			p := rng.Intn(procs)
			a := Addr(rng.Intn(64*48)) &^ 7
			w := rng.Intn(3) == 0
			direct.Access(p, a, w)
			evs = append(evs, traceEvent(p, a, w))
			if i == 600 {
				direct.ResetStats()
				evs = append(evs, resetMarker)
			}
		}
		tr := recordInOrder(evs, homes)
		replayed, err := Replay(tr, cfg)
		if err != nil {
			return false
		}
		want := direct.Stats()
		if want.Traffic != replayed.Traffic {
			return false
		}
		for p := range want.Procs {
			if want.Procs[p] != replayed.Procs[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fused multi-configuration replay must be deep-equal,
// configuration by configuration, to independent per-config replays —
// across associativities, cache sizes and line sizes, with epoch resets
// and invalidation-heavy sharing in the stream.
func TestReplayMultiMatchesReplayProperty(t *testing.T) {
	cfgs := []Config{
		{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64, OverheadBytes: 8},
		{Procs: 4, CacheSize: 2048, Assoc: 1, LineSize: 64, OverheadBytes: 8},
		{Procs: 4, CacheSize: 4096, Assoc: FullyAssoc, LineSize: 64, OverheadBytes: 8},
		{Procs: 4, CacheSize: 1024, Assoc: 4, LineSize: 16, OverheadBytes: 8},
		{Procs: 4, CacheSize: 8192, Assoc: 2, LineSize: 256, OverheadBytes: 8},
	}
	f := func(seed int64, withResets bool) bool {
		tr := buildSharingTrace(seed, 4, 2000, withResets)
		multi, err := ReplayMulti(tr, cfgs)
		if err != nil {
			t.Log(err)
			return false
		}
		for i, cfg := range cfgs {
			single, err := Replay(tr, cfg)
			if err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(multi[i], single) {
				t.Logf("seed=%d cfg=%d: fused replay diverges:\nmulti:  %+v\nsingle: %+v", seed, i, multi[i], single)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMultiEmptyAndInvalid(t *testing.T) {
	tr := buildTrace(2, 4, 200)
	if out, err := ReplayMulti(tr, nil); err != nil || out != nil {
		t.Fatalf("empty config list: %v, %v", out, err)
	}
	_, err := ReplayMulti(tr, []Config{
		{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64, OverheadBytes: 8},
		{Procs: 2, CacheSize: 2048, Assoc: 2, LineSize: 64, OverheadBytes: 8},
	})
	if err == nil {
		t.Fatal("undersized machine accepted in fused sweep")
	}
}

func TestReplayAcrossLineSizes(t *testing.T) {
	tr := buildTrace(7, 4, 2000)
	var prevRefs uint64
	for _, ls := range []int{16, 64, 256} {
		st, err := Replay(tr, Config{Procs: 4, CacheSize: 4096, Assoc: 2, LineSize: ls, OverheadBytes: 8})
		if err != nil {
			t.Fatal(err)
		}
		refs := st.Aggregate().Refs()
		if prevRefs != 0 && refs != prevRefs {
			t.Fatalf("reference count changed across line sizes: %d vs %d", refs, prevRefs)
		}
		prevRefs = refs
	}
}

func TestReplayRejectsTooFewProcs(t *testing.T) {
	tr := buildTrace(3, 8, 100)
	if _, err := Replay(tr, Config{Procs: 2, CacheSize: 2048, Assoc: 2, LineSize: 64, OverheadBytes: 8}); err == nil {
		t.Fatal("trace with 8 processors replayed on 2")
	}
}

func TestTraceMaxProcSkipsMarkers(t *testing.T) {
	tr := recordInOrder([]uint64{traceEvent(3, 0, false), resetMarker}, nil)
	if got := tr.MaxProc(); got != 3 {
		t.Fatalf("MaxProc=%d, want 3", got)
	}
}

func TestRecorderRejectsHugeProcIDs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for proc 127")
		}
	}()
	NewRecorder(64).RecordBatch(127, 0, []uint64{resetMarker})
}

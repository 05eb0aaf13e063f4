package memsys

import (
	"math"
	"runtime"
	"testing"
)

// sampledFingerprint flattens every queryable output of a profile —
// per-proc estimates, totals, rates, bands — so determinism tests can
// compare runs bit for bit.
func sampledFingerprint(t *testing.T, sp *SampledProfile, sizes []int) []uint64 {
	t.Helper()
	var out []uint64
	out = append(out, math.Float64bits(sp.Rate()), sp.Refs(), sp.SampledRefs())
	for _, cs := range sizes {
		for p := 0; p < sp.Procs(); p++ {
			m, err := sp.EstProcMisses(p, cs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, math.Float64bits(m))
		}
		mr, err := sp.EstMissRate(cs)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := sp.Band(cs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, math.Float64bits(mr), math.Float64bits(lo), math.Float64bits(hi))
	}
	return out
}

// TestSampledAdaptiveNeverOverflowingIsExact: rate 1 with a budget the
// trace never overflows is still the exact pass.
func TestSampledAdaptiveNeverOverflowingIsExact(t *testing.T) {
	tr := buildSharingTrace(3, 4, 4000, true)
	exact, err := StackDistances(tr, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 1, Seed: 9, MaxTracked: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Exact() {
		t.Fatal("never-overflowing rate-1 adaptive profile not flagged exact")
	}
	for _, cs := range []int{1 << 10, 16 << 10, 1 << 20} {
		want, err := exact.MissRate(cs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.EstMissRate(cs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cs=%d: adaptive est %v not bit-identical to exact %v", cs, got, want)
		}
	}
}

// TestSampledDeterministicAcrossGOMAXPROCS: a fixed seed must produce a
// byte-identical profile across repeated runs and GOMAXPROCS settings.
func TestSampledDeterministicAcrossGOMAXPROCS(t *testing.T) {
	tr := buildSharingTrace(21, 4, 6000, true)
	run := func() []uint64 {
		sp, err := SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 0.25, Seed: 5, ExactLines: 64})
		if err != nil {
			t.Fatal(err)
		}
		return sampledFingerprint(t, sp, stackSizes)
	}
	want := run()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range []int{1, 2, old} {
		runtime.GOMAXPROCS(gmp)
		for i := 0; i < 2; i++ {
			got := run()
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS=%d: fingerprint length %d != %d", gmp, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("GOMAXPROCS=%d: fingerprint word %d differs", gmp, j)
				}
			}
		}
	}
}

// TestSampledDegenerateInputs: empty and single-processor traces.
func TestSampledDegenerateInputs(t *testing.T) {
	empty := NewRecorder(64).Finish(make([]int32, 4))
	sp, err := SampledStackDistances(empty, 64, 1<<16, SampledOptions{Rate: 0.5, Seed: 1, ExactLines: DefaultExactLines})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Refs() != 0 || sp.SampledRefs() != 0 {
		t.Fatalf("empty trace: refs %d sampled %d", sp.Refs(), sp.SampledRefs())
	}
	mr, err := sp.EstMissRate(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := sp.Band(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if mr != 0 || lo != 0 || hi != 0 {
		t.Fatalf("empty trace: rate %v band [%v, %v]", mr, lo, hi)
	}

	single := buildSharingTrace(13, 1, 3000, false)
	exact, err := StackDistances(single, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sp, err = SampledStackDistances(single, 64, 1<<20, SampledOptions{Rate: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Procs() != 1 {
		t.Fatalf("single-proc trace: %d procs", sp.Procs())
	}
	got, err := sp.EstMissRate(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.MissRate(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("single-proc rate 1: est %v != exact %v", got, want)
	}
}

// TestSampledErrorEnvelope: on synthetic sharing traces, capacities
// covered by the exact window must match the exact pass bit for bit
// with zero-width bands — at any sampling rate, fixed or adaptive —
// and every estimate above the window must be a valid probability with
// a self-consistent band. (The tight suite-wide error bound at 1%
// sampling is enforced against the recorded apps in internal/core.)
func TestSampledErrorEnvelope(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr := buildSharingTrace(seed, 4, 30000, seed%2 == 0)
		exact, err := StackDistances(tr, 64, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []SampledOptions{
			{Rate: 0.3, Seed: uint64(seed), ExactLines: DefaultExactLines},
			{Rate: 0.05, Seed: uint64(seed), ExactLines: DefaultExactLines},
			{Rate: 0.3, Seed: uint64(seed), MaxTracked: 1 << 20, ExactLines: DefaultExactLines}, // adaptive, no overflow
			{Rate: 1, Seed: uint64(seed), MaxTracked: 512, ExactLines: 64},                      // adaptive, forced eviction
			{Rate: 0.3, Seed: uint64(seed)},                                                     // pure SHARDS, no window
		} {
			sp, err := SampledStackDistances(tr, 64, 1<<20, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, cs := range stackSizes {
				want, err := exact.MissRate(cs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sp.EstMissRate(cs)
				if err != nil {
					t.Fatal(err)
				}
				if got < 0 || got > 1 {
					t.Fatalf("seed=%d opt=%+v cs=%d: estimate %v outside [0,1]", seed, opt, cs, got)
				}
				lo, hi, err := sp.Band(cs)
				if err != nil {
					t.Fatal(err)
				}
				if lo > got || hi < got || lo < 0 || hi > 1 {
					t.Fatalf("seed=%d opt=%+v cs=%d: band [%v, %v] inconsistent with estimate %v", seed, opt, cs, lo, hi, got)
				}
				if cs/64 <= sp.ExactLines() {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("seed=%d opt=%+v cs=%d: window-covered estimate %v not bit-identical to exact %v", seed, opt, cs, got, want)
					}
					if lo != got || hi != got {
						t.Errorf("seed=%d opt=%+v cs=%d: window-covered band [%v, %v] not zero-width", seed, opt, cs, lo, hi)
					}
					for p := 0; p < sp.Procs(); p++ {
						wantM, err := exact.ProcMisses(p, cs)
						if err != nil {
							t.Fatal(err)
						}
						gotM, err := sp.EstProcMisses(p, cs)
						if err != nil {
							t.Fatal(err)
						}
						if gotM != float64(wantM) {
							t.Errorf("seed=%d opt=%+v cs=%d proc=%d: window misses %v != exact %d", seed, opt, cs, p, gotM, wantM)
						}
					}
				}
			}
		}
	}
}

// TestSampledExactLinesRounding: the window depth rounds up to a power
// of two and is reported by ExactLines.
func TestSampledExactLinesRounding(t *testing.T) {
	tr := buildSharingTrace(2, 2, 1000, false)
	sp, err := SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 0.5, Seed: 1, ExactLines: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sp.ExactLines() != 128 {
		t.Fatalf("ExactLines 100 rounded to %d, want 128", sp.ExactLines())
	}
	sp, err = SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp.ExactLines() != 0 {
		t.Fatalf("window disabled but ExactLines = %d", sp.ExactLines())
	}
}

// TestSampledAdaptiveLowersRate: a tight budget on a wide footprint
// must drop the effective rate below the configured one while keeping
// the tracked-set cardinality bounded.
func TestSampledAdaptiveLowersRate(t *testing.T) {
	tr := buildSharingTrace(17, 4, 20000, false)
	sp, err := SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 1, Seed: 3, MaxTracked: 128})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Exact() {
		t.Fatal("overflowing adaptive profile flagged exact")
	}
	if sp.Rate() >= 1 {
		t.Fatalf("adaptive rate did not drop: %v", sp.Rate())
	}
	if sp.SampledRefs() == 0 || sp.SampledRefs() >= sp.Refs() {
		t.Fatalf("adaptive sampled %d of %d refs", sp.SampledRefs(), sp.Refs())
	}
}

// TestSampledValidation: option and query validation.
func TestSampledValidation(t *testing.T) {
	tr := buildSharingTrace(1, 2, 200, false)
	for _, opt := range []SampledOptions{
		{Rate: 0},
		{Rate: -0.5},
		{Rate: 1.5},
		{Rate: math.NaN()},
		{Rate: 0.5, MaxTracked: -1},
		{Rate: 0.5, ExactLines: -1},
	} {
		if _, err := SampledStackDistances(tr, 64, 1<<16, opt); err == nil {
			t.Fatalf("options %+v accepted", opt)
		}
	}
	if _, err := SampledStackDistances(tr, 48, 1<<16, SampledOptions{Rate: 0.5}); err == nil {
		t.Fatal("non-power-of-two line size accepted")
	}
	if _, err := SampledStackDistances(tr, 64, 32, SampledOptions{Rate: 0.5}); err == nil {
		t.Fatal("max cache size below line size accepted")
	}
	sp, err := SampledStackDistances(tr, 64, 4096, SampledOptions{Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.EstMissRate(8192); err == nil {
		t.Fatal("query beyond profiled maximum accepted")
	}
	if _, _, err := sp.Band(96); err == nil {
		t.Fatal("non-multiple cache size accepted")
	}
}

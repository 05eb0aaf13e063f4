package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"

	"splash2/internal/core"
	"splash2/internal/memsys"
)

// Output checks. None needs a golden file: each compares two results the
// run produced itself, or holds a result to an invariant of the program.
// Each is a pure function so the tests can feed it corrupted input.

// checkNoFailedCells fails when a report rendered a lost experiment.
func checkNoFailedCells(text string) error {
	if n := strings.Count(text, "FAILED("); n > 0 {
		i := strings.Index(text, "FAILED(")
		end := strings.IndexByte(text[i:], '\n')
		if end < 0 {
			end = len(text) - i
		}
		return fmt.Errorf("%d FAILED( cells, first %q", n, text[i:i+end])
	}
	return nil
}

// sampledGap returns the largest absolute miss-ratio gap between a
// sampled fully-associative curve and the exact curve for the same
// program, and where it lies.
func sampledGap(exact []core.MissCurve, sampled []core.SampledCurve) (gap float64, where string, err error) {
	full := map[string]core.MissCurve{}
	for _, c := range exact {
		if c.Assoc == memsys.FullyAssoc {
			full[c.App] = c
		}
	}
	if len(sampled) == 0 {
		return 0, "", fmt.Errorf("report has no sampled curves")
	}
	for _, s := range sampled {
		x, ok := full[s.App]
		if !ok {
			return 0, "", fmt.Errorf("%s: no exact fully-associative curve", s.App)
		}
		if s.Failed != "" || x.Failed != "" || len(s.MissRate) != len(x.MissRate) {
			return 0, "", fmt.Errorf("%s: sampled and exact curves not comparable", s.App)
		}
		for i := range s.MissRate {
			if g := math.Abs(s.MissRate[i]-x.MissRate[i]) / 100; g > gap {
				gap = g
				where = fmt.Sprintf("%s at %d B: sampled %.4f%% vs exact %.4f%%", s.App, s.CacheSizes[i], s.MissRate[i], x.MissRate[i])
			}
		}
	}
	return gap, where, nil
}

// checkFourWayEqual holds a report's exact 4-way Figure-3 row for app to
// the miss rates (percent) ReplayMulti gave on an independent recording.
func checkFourWayEqual(app string, curves []core.MissCurve, replayed []float64) error {
	for _, c := range curves {
		if c.App != app || c.Assoc != 4 {
			continue
		}
		if !reflect.DeepEqual(c.MissRate, replayed) {
			return fmt.Errorf("%s: report 4-way row %v, ReplayMulti %v", app, c.MissRate, replayed)
		}
		return nil
	}
	return fmt.Errorf("%s: report has no 4-way row", app)
}

// checkStatsEqual holds streamed replay results to the in-memory
// ReplayMulti results, configuration by configuration.
func checkStatsEqual(app string, streamed, inMemory []memsys.Stats) error {
	if len(streamed) != len(inMemory) {
		return fmt.Errorf("%s: %d streamed results, %d in-memory", app, len(streamed), len(inMemory))
	}
	for i := range streamed {
		if !reflect.DeepEqual(streamed[i], inMemory[i]) {
			return fmt.Errorf("%s: configuration %d differs: streamed miss rate %.6f, in-memory %.6f",
				app, i, streamed[i].MissRate(), inMemory[i].MissRate())
		}
	}
	return nil
}

// checkSameBody holds a response body to the cold body of its request.
func checkSameBody(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: %d-byte body differs from the %d-byte reference", what, len(got), len(want))
	}
	return nil
}

// checkStatus holds a response to the expected status code.
func checkStatus(what string, want, got int) error {
	if got != want {
		return fmt.Errorf("%s: status %d, want %d", what, got, want)
	}
	return nil
}

// checkNotModified holds a revalidation to 304 with an empty body and
// the ETag it revalidated.
func checkNotModified(what string, status int, body []byte, etag, wantETag string) error {
	switch {
	case status != 304:
		return fmt.Errorf("%s: status %d, want 304", what, status)
	case len(body) != 0:
		return fmt.Errorf("%s: 304 with a %d-byte body", what, len(body))
	case etag != wantETag:
		return fmt.Errorf("%s: ETag %s, want %s", what, etag, wantETag)
	}
	return nil
}

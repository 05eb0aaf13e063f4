package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"splash2/internal/cli"
	"splash2/internal/core"
)

// TestDeadlineExceededReturns504: a client whose deadline lapses while
// its flight executes gets the documented JSON 504 immediately — and the
// server is not wedged: the flight finishes for whoever is patient, a
// later request succeeds and a drain completes.
func TestDeadlineExceededReturns504(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	gate := make(chan struct{})
	s.co.hookFlightStart = func(string) { <-gate }

	start := time.Now()
	resp := postJSON(t, ts.URL, smallReq(), map[string]string{headerDeadline: "100ms"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("doomed request = %d, want 504 (body: %s)", resp.StatusCode, b)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("504 took %v; the deadline did not cut the wait", waited)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("504 body is not the JSON error shape: %v", err)
	}
	resp.Body.Close()
	if eb.Exit != cli.ExitRuntime {
		t.Errorf("504 exit taxonomy = %d, want %d", eb.Exit, cli.ExitRuntime)
	}
	if eb.Error == "" {
		t.Error("504 body carries no error text")
	}

	// Release the flight (the closed gate no longer blocks anyone); the
	// server must remain fully usable.
	close(gate)
	resp = postJSON(t, ts.URL, smallReq(), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after a 504 = %d, want 200", resp.StatusCode)
	}

	// The 504 is visible in /metrics and drain is not wedged.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.Deadlines.Exceeded == 0 {
		t.Error("metrics do not count the exceeded deadline")
	}
	if !s.BeginDrain(10 * time.Second) {
		t.Error("drain wedged after a deadline 504")
	}
}

// TestNewRequestSkipsDoomedFlight: a request that arrives after the
// previous flight's leader deadline lapsed, but before that flight has
// left the coalescer, must start a flight of its own and get 200 — not
// join the doomed one and inherit its 504.
func TestNewRequestSkipsDoomedFlight(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	gate := make(chan struct{})
	s.co.hookFlightStart = func(string) { <-gate }

	resp := postJSON(t, ts.URL, smallReq(), map[string]string{headerDeadline: "100ms"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("doomed request = %d, want 504", resp.StatusCode)
	}
	// The doomed flight is still registered, parked at the gate; wait
	// until its context has observably expired.
	waitFor(t, "the doomed flight's context to expire", func() bool {
		s.co.mu.Lock()
		defer s.co.mu.Unlock()
		for _, f := range s.co.flights {
			if f.ctx.Err() == nil {
				return false
			}
		}
		return len(s.co.flights) == 1
	})

	status := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(smallReq())
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitFor(t, "the second request to reach the coalescer", func() bool {
		started, coalesced, _, _, _ := s.co.counts()
		return started+coalesced == 2
	})
	close(gate)
	if code := <-status; code != http.StatusOK {
		t.Fatalf("request after a doomed flight = %d, want 200", code)
	}
	if started, coalesced, _, _, _ := s.co.counts(); started != 2 || coalesced != 0 {
		t.Errorf("flights started=%d coalesced=%d, want 2/0", started, coalesced)
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDeadlineParamValidation: the GET deadline query parameter must be
// a positive duration.
func TestDeadlineParamValidation(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	for _, q := range []string{"deadline=bogus", "deadline=-5s"} {
		resp, err := http.Get(ts.URL + "/v1/experiments?kind=table1&apps=fft&procs=2&scale=default&" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET with %s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestMetricsLeaseAndJournal: with a cache directory the engine holds
// work leases and journals the run; both must surface in /metrics.
func TestMetricsLeaseAndJournal(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{CacheDir: t.TempDir()}, Options{})
	resp := postJSON(t, ts.URL, smallReq(), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment = %d, want 200", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Lease.Acquired == 0 {
		t.Error("metrics report no acquired leases despite a cache dir")
	}
	if !m.Journal.Enabled || m.Journal.RunID == "" {
		t.Errorf("journal block = %+v, want enabled with a run id", m.Journal)
	}
	if m.Journal.Appended == 0 {
		t.Error("journal appended no events during a real run")
	}
}

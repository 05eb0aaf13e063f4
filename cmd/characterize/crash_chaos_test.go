package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"splash2/internal/runner"
)

// Kill-9 chaos proofs.
//
// Each case re-executes this test binary as a real characterize process
// with a crash rule armed at one injection point. The child dies by
// SIGKILL mid-sweep — no defers, no flushes — exactly as an operator's
// kill -9 would take it. The parent then restarts against the same cache
// directory with -resume and proves the crash-consistency contract:
// byte-identical results, no leaked leases or temp files, and a journal
// that still parses and names the dead run.

const (
	crashHelperEnv = "SPLASH2_CRASH_HELPER"
	crashArgsEnv   = "SPLASH2_CRASH_ARGS"
)

// TestCrashHelper is not a test: it is the child process body. When the
// helper env vars are set it runs the real CLI and exits with its code —
// unless the armed fault kills it first.
func TestCrashHelper(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "1" {
		t.Skip("crash helper: only runs re-executed")
	}
	args := strings.Split(os.Getenv(crashArgsEnv), "\n")
	os.Exit(run(args, os.Stdout, os.Stderr))
}

// chaosWorkload is the sweep every chaos case runs: two programs, two
// processor counts, JSON output (stable bytes for the identity check).
func chaosWorkload(cacheDir string) []string {
	return []string{
		"-apps", "fft,lu", "-p", "2", "-plist", "1,2",
		"-format", "json", "-cache-dir", cacheDir,
	}
}

// runCrashChild re-executes the test binary as a characterize process.
// Safe from spawned goroutines: exec failures come back as an error, not
// a t.Fatal (which would strand the caller's channels).
func runCrashChild(args []string) (exitCode int, stdout, stderr string, fatal error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", "", err
	}
	cmd := exec.Command(exe, "-test.run=^TestCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashHelperEnv+"=1",
		crashArgsEnv+"="+strings.Join(args, "\n"))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			return 0, "", "", fmt.Errorf("crash child did not run: %w", err)
		}
		code = ee.ExitCode() // -1 when signal-killed
	}
	return code, out.String(), errb.String(), nil
}

// crashDebris lists leftover lease/temp artifacts under the cache dir.
func crashDebris(t *testing.T, cacheDir string) []string {
	t.Helper()
	var debris []string
	err := filepath.WalkDir(cacheDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, ".lease") || strings.Contains(name, ".tmp") ||
			strings.Contains(name, ".reap-") {
			debris = append(debris, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return debris
}

// TestKill9Chaos: for each injection point, a real process is SIGKILLed
// mid-sweep, and a restart against the same cache directory must produce
// byte-identical results with all crash debris reclaimed.
func TestKill9Chaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real crashing processes")
	}

	// Baseline: the same workload run cleanly, for the identity check.
	baselineDir := t.TempDir()
	code, baseline, stderr := runCLI(t, chaosWorkload(baselineDir)...)
	if code != exitOK {
		t.Fatalf("baseline run exited %d: %s", code, stderr)
	}

	// One crash per distinct injection point, spanning every layer that
	// holds crash-sensitive state: mid-job, mid-store, lease acquisition
	// and the journal append path itself. The seed moves each crash to a
	// different occurrence (1–3), so the CI matrix kills the process at
	// different depths into the sweep; the workload has ≥4 jobs, puts and
	// lease acquisitions, so every occurrence exists.
	seed := 1
	if s := os.Getenv("CRASH_CHAOS_SEED"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			seed = n
		}
	}
	nth := func(i int) int { return 1 + (seed+i)%3 }
	faults := []string{
		fmt.Sprintf("crash@%d=job:*", nth(0)),
		fmt.Sprintf("crash@%d=cache.put:*", nth(1)),
		fmt.Sprintf("crash@%d=lease.acquire:*", nth(2)),
		fmt.Sprintf("crash@%d=journal.append", nth(3)),
	}
	for _, spec := range faults {
		spec := spec
		name := strings.NewReplacer("@", "_", "=", "_", ":", "_", "*", "x").Replace(spec)
		t.Run(name, func(t *testing.T) {
			cacheDir := t.TempDir()
			args := append(chaosWorkload(cacheDir), "-fault", spec)
			code, _, childErr, err := runCrashChild(args)
			if err != nil {
				t.Fatal(err)
			}
			// SIGKILL surfaces as -1 (signal) or 137 (the exit fallback).
			if code != -1 && code != 137 {
				t.Fatalf("crash child exited %d, want SIGKILL death (stderr: %s)", code, childErr)
			}
			if !strings.Contains(childErr, "fault: injected crash at") {
				t.Fatalf("child died but not by the armed fault: %s", childErr)
			}

			// Restart against the same cache dir: reclaim, then finish.
			restartArgs := append(chaosWorkload(cacheDir), "-resume")
			code, out, stderr := runCLI(t, restartArgs...)
			if code != exitOK {
				t.Fatalf("resumed run exited %d: %s", code, stderr)
			}
			if out != baseline {
				t.Errorf("resumed results differ from the clean run (%d vs %d bytes)", len(out), len(baseline))
			}

			// No leases, temp files or takeover debris may survive.
			if debris := crashDebris(t, cacheDir); len(debris) != 0 {
				t.Errorf("crash debris not reclaimed: %v", debris)
			}

			// Every journal parses; the dead run is identifiable (no
			// run.end) and was adopted exactly once; the resumed run's own
			// journal ended cleanly.
			journals, err := filepath.Glob(filepath.Join(runner.JournalDir(cacheDir), "*.jsonl"))
			if err != nil || len(journals) < 2 {
				t.Fatalf("expected crashed + resumed journals, got %v (err %v)", journals, err)
			}
			dead, ended := 0, 0
			for _, path := range journals {
				events, err := runner.ReadJournal(path)
				if err != nil {
					t.Errorf("journal %s corrupt after crash: %v", path, err)
					continue
				}
				s := runner.Summarize(path, events)
				switch {
				case s.Ended:
					ended++
				case s.Resumed:
					dead++
				default:
					t.Errorf("journal %s: dead but never adopted by the resume", path)
				}
			}
			if dead != 1 || ended != 1 {
				t.Errorf("journal census: %d dead-resumed, %d ended; want 1 and 1", dead, ended)
			}
		})
	}
}

// TestTwoProcessSharedCache: the multi-process acceptance proof — two
// real processes started together on one cold cache directory both
// succeed with identical bytes, and the work leases make them split or
// share the jobs rather than duplicate the expensive sweep blindly.
func TestTwoProcessSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	cacheDir := t.TempDir()
	type res struct {
		code   int
		stdout string
		stderr string
		err    error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, out, errb, err := runCrashChild(chaosWorkload(cacheDir))
			results <- res{code, out, errb, err}
		}()
	}
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("children did not run: %v / %v", a.err, b.err)
	}
	if a.code != exitOK || b.code != exitOK {
		t.Fatalf("concurrent runs exited %d and %d\n%s\n%s", a.code, b.code, a.stderr, b.stderr)
	}
	if a.stdout != b.stdout {
		t.Error("concurrent runs produced different bytes")
	}
	if debris := crashDebris(t, cacheDir); len(debris) != 0 {
		t.Errorf("clean concurrent runs leaked: %v", debris)
	}
	// Both journals must exist and have ended cleanly.
	sums := runner.ScanJournals(runner.JournalDir(cacheDir))
	if len(sums) != 2 {
		t.Fatalf("expected 2 journals, got %d", len(sums))
	}
	for _, s := range sums {
		if !s.Ended {
			t.Errorf("journal %s never ended", s.RunID)
		}
	}
}

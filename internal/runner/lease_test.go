package runner

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newLeasedCache opens a cache with leases enabled. Each call opens its
// own lease files, so two caches on one directory model two processes.
func newLeasedCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableLeases()
	return c
}

// leaseFiles lists the lease files under a cache directory.
func leaseFiles(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.lease"))
	return files
}

// TestLeaseCoalescesTwoRunners is the acceptance property: two runners
// (standing in for two processes) sharing a cold cache execute an
// expensive job once. The loser adopts the winner's stored result.
func TestLeaseCoalescesTwoRunners(t *testing.T) {
	dir := t.TempDir()
	var executions atomic.Int64
	runJob := func(ctx context.Context) (int, error) {
		executions.Add(1)
		time.Sleep(300 * time.Millisecond)
		return 77, nil
	}
	key := KeyOf("test", "lease-coalesce")

	runners := []*Runner{
		New(Options{Cache: newLeasedCache(t, dir)}),
		New(Options{Cache: newLeasedCache(t, dir)}),
	}
	var wg sync.WaitGroup
	results := make([]int, len(runners))
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			g := r.NewGraph()
			j := Submit(g, Spec{Label: "expensive", Key: key}, runJob)
			if err := g.Wait(context.Background()); err != nil {
				t.Errorf("runner %d: %v", i, err)
				return
			}
			results[i], _ = j.Result()
		}(i, r)
	}
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("job executed %d times across two runners, want 1", n)
	}
	for i, v := range results {
		if v != 77 {
			t.Errorf("runner %d got %d, want 77", i, v)
		}
	}
	var acquired, shared int64
	for _, r := range runners {
		c := r.Counts()
		acquired += c.LeaseAcquired
		shared += c.LeaseShared
	}
	if acquired != 1 || shared != 1 {
		t.Errorf("lease counters: acquired=%d shared=%d, want 1/1", acquired, shared)
	}
	// The handoff must leave no lease behind.
	if leases := leaseFiles(dir); len(leases) != 0 {
		t.Errorf("leaked leases after clean handoff: %v", leases)
	}
}

// plantDeadLease leaves a lease file as a holder killed mid-job does:
// its pid record in place and no lock held on it.
func plantDeadLease(t *testing.T, l *leases, k Key) string {
	t.Helper()
	path := l.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// holdLease takes k's lease through a fresh Cache on dir — another
// process, as far as the lease protocol can tell — and fails the test
// unless it wins.
func holdLease(t *testing.T, dir string, k Key) *os.File {
	t.Helper()
	state, f := newLeasedCache(t, dir).leaseManager().tryAcquire(context.Background(), k)
	if state != leaseWon {
		t.Fatalf("setup: tryAcquire = %v, want leaseWon", state)
	}
	return f
}

// TestLeaseTakeoverRace: many contenders hit one dead holder's lease at
// once. The kernel lock admits exactly one of them, which counts the
// single takeover; everyone else must see leaseLost, never an error.
func TestLeaseTakeoverRace(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "takeover-race")
	var takeovers atomic.Int64

	const contenders = 8
	mgrs := make([]*leases, contenders)
	for i := range mgrs {
		mgrs[i] = newLeasedCache(t, dir).leaseManager()
		mgrs[i].takeovers = func(context.Context, string) { takeovers.Add(1) }
	}
	plantDeadLease(t, mgrs[0], k)

	states := make([]leaseState, contenders)
	held := make([]*os.File, contenders)
	var wg sync.WaitGroup
	for i := range mgrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i], held[i] = mgrs[i].tryAcquire(context.Background(), k)
		}(i)
	}
	wg.Wait()

	won, lost, errs := 0, 0, 0
	for i, s := range states {
		switch s {
		case leaseWon:
			won++
			defer releaseLease(held[i])
		case leaseLost:
			lost++
		case leaseErr:
			errs++
		}
	}
	if won != 1 || errs != 0 {
		t.Fatalf("states: won=%d lost=%d err=%d, want exactly one winner and no errors", won, lost, errs)
	}
	if n := takeovers.Load(); n != 1 {
		t.Errorf("dead lease taken over %d times, want exactly 1", n)
	}
}

// TestLeaseContenderLosesWhileHolderLives: however long a live holder
// runs, a contender loses and the lease file stays; once the holder
// releases, the contender wins a fresh lease — not a takeover — and its
// own release leaves nothing behind.
func TestLeaseContenderLosesWhileHolderLives(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "holder-lives")
	holder := holdLease(t, dir, k)

	var takeovers atomic.Int64
	l := newLeasedCache(t, dir).leaseManager()
	l.takeovers = func(context.Context, string) { takeovers.Add(1) }
	for i := 0; i < 5; i++ {
		if state, _ := l.tryAcquire(context.Background(), k); state != leaseLost {
			t.Fatalf("probe %d against a live holder = %v, want leaseLost", i, state)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := os.Stat(l.path(k)); err != nil {
		t.Fatalf("lease vanished while held: %v", err)
	}

	releaseLease(holder)
	state, f := l.tryAcquire(context.Background(), k)
	if state != leaseWon {
		t.Fatalf("tryAcquire after release = %v, want leaseWon", state)
	}
	releaseLease(f)
	if n := takeovers.Load(); n != 0 {
		t.Errorf("clean handoff counted %d takeovers, want 0", n)
	}
	if leases := leaseFiles(dir); len(leases) != 0 {
		t.Errorf("leaked leases after release: %v", leases)
	}
}

// TestLeaseMutualExclusionChurn: goroutines with their own Caches on one
// directory acquire, hold and release one key for many rounds. Holders
// must never overlap — the SameFile recheck and unlink-before-close are
// what make that hold under release/acquire interleavings — and the
// churn must leave no lease file behind.
func TestLeaseMutualExclusionChurn(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "churn")
	const workers, rounds = 8, 200
	var holders, overlaps atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		l := newLeasedCache(t, dir).leaseManager()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var f *os.File
				for f == nil {
					switch state, held := l.tryAcquire(context.Background(), k); state {
					case leaseWon:
						f = held
					case leaseErr:
						t.Error("tryAcquire failed in the lease layer")
						return
					default:
						runtime.Gosched()
					}
				}
				if holders.Add(1) != 1 {
					overlaps.Add(1)
				}
				runtime.Gosched()
				holders.Add(-1)
				releaseLease(f)
			}
		}()
	}
	wg.Wait()

	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d acquisitions overlapped another holder, want 0", n)
	}
	if leases := leaseFiles(dir); len(leases) != 0 {
		t.Errorf("leaked leases after churn: %v", leases)
	}
}

// leasedJob submits k as one job on a fresh leased runner over dir and
// returns the graph plus the job's execution counter.
func leasedJob(t *testing.T, dir string, k Key, opts Options) (*Runner, *Graph, *atomic.Int64) {
	t.Helper()
	opts.Cache = newLeasedCache(t, dir)
	r := New(opts)
	g := r.NewGraph()
	var executions atomic.Int64
	Submit(g, Spec{Label: "leased", Key: k}, func(context.Context) (int, error) {
		executions.Add(1)
		return 5, nil
	})
	return r, g, &executions
}

// TestLeaseWaitWinnerVanished: a waiting loser whose holder released
// without storing must win the lease and run the job itself, not wait
// forever.
func TestLeaseWaitWinnerVanished(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "winner-vanished")
	holder := holdLease(t, dir, k)
	time.AfterFunc(100*time.Millisecond, func() { releaseLease(holder) })

	r, g, executions := leasedJob(t, dir, k, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Wait(ctx); err != nil {
		t.Fatalf("Wait = %v, want the waiter to run the job", err)
	}
	c := r.Counts()
	if executions.Load() != 1 || c.LeaseAcquired != 1 || c.LeaseShared != 0 {
		t.Errorf("executions=%d acquired=%d shared=%d, want 1/1/0",
			executions.Load(), c.LeaseAcquired, c.LeaseShared)
	}
	if leases := leaseFiles(dir); len(leases) != 0 {
		t.Errorf("leaked leases: %v", leases)
	}
}

// TestLeaseWaitTakesOverDeadHolder: a holder whose file is closed
// without the unlink — what the kernel does for a killed process — lets
// a waiter win at once; the waiter journals exactly one takeover.
func TestLeaseWaitTakesOverDeadHolder(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "dead-holder")
	holder := holdLease(t, dir, k)

	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, g, executions := leasedJob(t, dir, k, Options{Journal: j})
	died := make(chan time.Time, 1)
	time.AfterFunc(100*time.Millisecond, func() {
		died <- time.Now()
		holder.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Wait(ctx); err != nil {
		t.Fatalf("Wait = %v, want the waiter to take the lease over", err)
	}
	if waited := time.Since(<-died); waited > time.Second {
		t.Errorf("waiter took %v to take over a dead holder's lease", waited)
	}
	if executions.Load() != 1 {
		t.Errorf("job executed %d times, want 1", executions.Load())
	}
	if n := r.Counts().LeaseTakeovers; n != 1 {
		t.Errorf("LeaseTakeovers = %d, want 1", n)
	}
	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	takeovers := 0
	for _, ev := range events {
		if ev.Event == "lease.takeover" {
			takeovers++
			if ev.Key != k.String() {
				t.Errorf("lease.takeover key = %s, want %s", ev.Key, k)
			}
		}
	}
	if takeovers != 1 {
		t.Errorf("journal has %d lease.takeover events, want 1", takeovers)
	}
	if leases := leaseFiles(dir); len(leases) != 0 {
		t.Errorf("leaked leases: %v", leases)
	}
}

// TestLeaseWaitHonoursContext: a waiter whose context ends returns the
// context error instead of polling on, and never runs the job.
func TestLeaseWaitHonoursContext(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "wait-ctx")
	defer releaseLease(holdLease(t, dir, k)) // a live holder, never done

	_, g, executions := leasedJob(t, dir, k, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := g.Wait(ctx); err == nil {
		t.Fatal("Wait succeeded against a live holder, want the context error")
	}
	if n := executions.Load(); n != 0 {
		t.Errorf("job executed %d times while another holder had the lease", n)
	}
}

// TestSweepCrashed: an explicit resume sweep reclaims dead holders'
// leases and temp files, while leaving a live holder's lease alone.
func TestSweepCrashed(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir)
	dead := plantDeadLease(t, c.leaseManager(), KeyOf("test", "sweep-dead"))

	liveKey := KeyOf("test", "sweep-live")
	defer releaseLease(holdLease(t, dir, liveKey))
	livePath := c.leaseManager().path(liveKey)

	tmp := filepath.Join(dir, "ab", ".tmp-orphan")
	os.MkdirAll(filepath.Dir(tmp), 0o755)
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed := c.SweepCrashed()
	got := strings.Join(removed, "\n")
	for _, want := range []string{dead, tmp} {
		if !strings.Contains(got, want) {
			t.Errorf("sweep did not reclaim %s (removed: %v)", want, removed)
		}
	}
	if strings.Contains(got, livePath) {
		t.Errorf("sweep reported a live holder's lease as removed: %v", removed)
	}
	if _, err := os.Stat(livePath); err != nil {
		t.Errorf("sweep removed a live holder's lease: %v", err)
	}
}

// TestCachePutObstructedPaths: Put must fail loudly (and leave no
// debris) when the entry's path is physically blocked. Unlike the
// permission-based test below, obstructions bind even under root.
func TestCachePutObstructedPaths(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "put-obstructed")
	path := c.path(k)

	// A regular file where the shard directory belongs: MkdirAll fails.
	shard := filepath.Dir(path)
	if err := os.WriteFile(shard, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put with a file blocking the shard dir succeeded")
	}
	os.Remove(shard)

	// A directory where the entry belongs: the final rename fails.
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put with a directory blocking the entry succeeded")
	}
	os.Remove(path)

	// Neither failure may leak temp files, and a clean Put recovers.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if len(tmps) != 0 {
		t.Errorf("obstructed Puts leaked temp files: %v", tmps)
	}
	if err := c.Put(context.Background(), k, []byte("4")); err != nil {
		t.Fatalf("Put after obstructions cleared: %v", err)
	}
	if v, ok := c.Get(context.Background(), k, decodeInt); !ok || v.(int) != 4 {
		t.Fatalf("Get after recovery = %v, %v", v, ok)
	}
}

// TestCachePutErrorPaths: Put must fail loudly (and leave no debris)
// when the cache directory cannot be written.
func TestCachePutErrorPaths(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; directory permissions are not enforced")
	}
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "put-error")

	// Read-only cache root: the shard mkdir fails.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put into a read-only cache dir succeeded")
	}
	os.Chmod(dir, 0o755)

	// Shard dir exists but is read-only: the temp create fails.
	shard := filepath.Dir(c.path(k))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(shard, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(shard, 0o755) })
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put into a read-only shard dir succeeded")
	}
	os.Chmod(shard, 0o755)

	// The failed Puts must not have leaked temp files.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if len(tmps) != 0 {
		t.Errorf("failed Puts leaked temp files: %v", tmps)
	}

	// And a clean Put still works afterwards.
	if err := c.Put(context.Background(), k, []byte("9")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if v, ok := c.Get(context.Background(), k, decodeInt); !ok || v.(int) != 9 {
		t.Fatalf("Get after recovery = %v, %v", v, ok)
	}
}

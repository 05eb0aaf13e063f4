package runner

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"splash2/internal/fault"
)

// Cross-process work leases.
//
// Two processes sharing a cache directory (a daemon plus an operator's
// ad-hoc characterize run, or two runs) race to execute the same cold
// experiments. In-process the singleflight memo deduplicates them;
// leases extend the coalescing across the process boundary on one host,
// with the kernel as both arbiter and liveness detector:
//
//   - A job's lease is an exclusive, non-blocking flock on
//     <dir>/<key[:2]>/<key[2:]>.lease, next to the cache entry it guards.
//     flock locks belong to the open file description, so two Caches in
//     one process exclude each other just as two processes do.
//   - The winner writes its pid into the file, runs the job, stores the
//     result in the cache, then releases: it unlinks the path while still
//     holding the lock and only then closes the file. Losers poll: a
//     cache hit ends the wait, a free lock means the holder is gone.
//   - Because a releaser unlinks before unlocking, a contender can open
//     the path, lose the race to the release, and then lock an inode the
//     path no longer names. Every acquirer therefore rechecks that its
//     locked file is still the one at the path (os.SameFile) and retries
//     otherwise, so exactly one holder exists per path at any instant.
//   - A holder that dies — kill -9 included — has its lock dropped by the
//     kernel at once. Its pid record stays behind, so the next acquirer
//     to find the file non-empty is taking over from a dead holder and
//     counts a takeover.
//
// The protocol is advisory and best-effort by design: any lease-layer
// error (no flock on this platform, an unwritable directory, an injected
// fault) degrades to "run the job locally", which costs duplicated work,
// never correctness — results are content-addressed, so two processes
// computing the same key store identical bytes.

// leaseState says how an acquisition attempt ended.
type leaseState int

const (
	// leaseWon: this process holds the lease and must run the job.
	leaseWon leaseState = iota
	// leaseLost: another live holder has the lease.
	leaseLost
	// leaseErr: the lease layer itself failed; run the job locally.
	leaseErr
)

// leases is the per-cache lease manager.
type leases struct {
	dir string
	inj *fault.Injector

	// takeovers observes leases taken over from dead holders (runner
	// counter + journal); the context is the acquiring request, the
	// argument the key's hex string.
	takeovers func(ctx context.Context, key string)
}

// path returns the lease file for a key, sharded like the cache entry it
// guards.
func (l *leases) path(k Key) string {
	hx := k.String()
	return filepath.Join(l.dir, hx[:2], hx[2:]+".lease")
}

// tryAcquire attempts to take the lease for k. On leaseWon the caller
// holds the returned locked file and must pass it to releaseLease. On
// leaseLost a live holder exists. leaseErr means the lease layer is
// broken: callers fall back to local execution.
func (l *leases) tryAcquire(ctx context.Context, k Key) (leaseState, *os.File) {
	path := l.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return leaseErr, nil
	}
	f, size, state := lockPath(path, os.O_RDWR|os.O_CREATE)
	if state != leaseWon {
		return state, nil
	}
	if size > 0 {
		// A clean release unlinks the file, so a record still in it was
		// left by a holder that died with the lock.
		if l.takeovers != nil {
			l.takeovers(ctx, k.String())
		}
		if err := f.Truncate(0); err != nil {
			releaseLease(f)
			return leaseErr, nil
		}
	}
	if _, err := f.WriteString(strconv.Itoa(os.Getpid()) + "\n"); err != nil {
		releaseLease(f)
		return leaseErr, nil
	}
	// A crash injected here (lease held and recorded, no work done) dies
	// with the record in place: the next acquirer must take it over.
	if err := l.inj.Do(ctx, "lease.acquire:"+k.String()); err != nil {
		releaseLease(f)
		return leaseErr, nil
	}
	return leaseWon, f
}

// lockPath opens path with flag and takes its exclusive lock without
// blocking. It returns the locked file and its size on leaseWon, and
// leaseLost while a live holder keeps the lock. Locking an inode the
// path no longer names (its holder unlinked it while this open was in
// flight) is not a win: the loop retries on whatever the path names now.
func lockPath(path string, flag int) (*os.File, int64, leaseState) {
	for {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, 0, leaseErr
		}
		held, err := tryLock(f)
		if held {
			var fi os.FileInfo
			if fi, err = f.Stat(); err == nil {
				if pi, perr := os.Stat(path); perr == nil && os.SameFile(fi, pi) {
					return f, fi.Size(), leaseWon
				}
			}
		}
		f.Close() //splash:allow durability nothing was written through f; closing only drops a lock that guards no lease
		switch {
		case err != nil:
			return nil, 0, leaseErr
		case !held:
			return nil, 0, leaseLost
		}
		// Locked an inode the path no longer names: retry.
	}
}

// releaseLease ends a held lease: unlink the path while still holding
// the lock, then close the file, which drops the lock. In the other
// order a contender could lock the still-linked file between the close
// and the unlink, pass its SameFile recheck, and then have the path
// unlinked under it — letting a third process hold a second lease.
func releaseLease(f *os.File) {
	os.Remove(f.Name())
	f.Close()
}

// waitInterval is how often a losing contender re-probes the cache and
// the holder's lock. Short enough that cross-process handoff latency is
// invisible next to experiment runtimes, long enough to keep the wait
// loop's I/O trivial.
const waitInterval = 25 * time.Millisecond

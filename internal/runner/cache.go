package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"splash2/internal/fault"
)

// Cache is the content-addressed on-disk result store. Each entry lives
// at <dir>/<key[:2]>/<key[2:]>.json and wraps the experiment result in an
// envelope carrying a checksum of the value bytes, so truncated or
// corrupted files are detected on read and treated as misses (the entry
// is removed and the experiment recomputed). Writes go through a
// temporary file plus rename, so concurrent runs sharing a cache
// directory never observe partial entries; temporary files orphaned by a
// crashed run are swept on open.
//
// # Concurrency
//
// A Cache is safe for concurrent use by any number of readers and
// writers, in one process or many (splashd serves every request from one
// shared cache directory). The contract, relied on by the serve layer
// and pinned by TestCacheConcurrentAccess:
//
//   - Get/Get: reads share no mutable state; each opens and reads the
//     entry file independently.
//   - Get/Put on the same key: Put is atomic (temp file + rename), so a
//     concurrent Get observes either the complete old entry, the complete
//     new entry, or — transiently, never wrongly — a miss. It can never
//     observe a torn entry: the checksum envelope downgrades any partial
//     read to a miss.
//   - Get/Get on a damaged entry: both readers detect the bad checksum,
//     both may Remove the file; unlinking a file another reader holds
//     open is safe on POSIX, and a failed Remove is ignored.
//   - Put/Put on the same key: last rename wins. Both writers hold the
//     same value bytes for a content-addressed key, so the outcome is
//     identical either way.
//
// Cached values decoded by Get are handed to multiple graphs by the
// runner's memo; consumers must treat them as immutable.
//
// SetFault and EnableLeases are the exceptions: they must be called
// before the cache is shared (test/CLI setup, not runtime controls).
type Cache struct {
	dir string
	inj *fault.Injector
	ls  *leases
}

// DefaultDir returns the default cache location, <user cache dir>/splash2
// (e.g. ~/.cache/splash2 on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("runner: no user cache dir: %w", err)
	}
	return filepath.Join(base, "splash2"), nil
}

// OpenCache opens (creating if needed) a cache rooted at dir. An empty
// dir selects DefaultDir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		d, err := DefaultDir()
		if err != nil {
			return nil, err
		}
		dir = d
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	sweepStaleTmp(dir)
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

// SetFault attaches a fault injector to the cache's I/O paths: reads
// evaluate "cache.get:<key>" (errors and short reads), writes evaluate
// "cache.put:<key>", lease acquisitions evaluate "lease.acquire:<key>".
// nil detaches.
func (c *Cache) SetFault(inj *fault.Injector) {
	c.inj = inj
	if c.ls != nil {
		c.ls.inj = inj
	}
}

// EnableLeases turns on cross-process work leases (see lease.go). Like
// SetFault it is setup-time configuration.
func (c *Cache) EnableLeases() {
	c.ls = &leases{dir: c.dir, inj: c.inj}
}

// leaseManager returns the lease manager, or nil when leases are
// disabled (or the cache itself is nil).
func (c *Cache) leaseManager() *leases {
	if c == nil {
		return nil
	}
	return c.ls
}

// staleTmpAge is how old an orphaned temporary file must be before the
// open-time sweep deletes it. The margin keeps the sweep from racing a
// concurrent run's in-flight Put, whose tmp files live for milliseconds.
const staleTmpAge = time.Hour

// sweepStaleTmp deletes temporary files left behind by crashed runs:
// cache entry temps (".tmp-*") and spill container/sidecar temps
// ("<key>.tmp*", "<key>.json.tmp*"). Real artifacts (.json entries,
// .sp2t containers and their .sp2t.json sidecars, .lease files, journal
// .jsonl) never match.
// Best-effort: sweep errors never fail OpenCache.
func sweepStaleTmp(dir string) {
	sweepTmp(dir, staleTmpAge)
}

// sweepTmp removes temp artifacts older than age under dir.
func sweepTmp(dir string, age time.Duration) (removed []string) {
	now := time.Now()
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		name := info.Name()
		if !strings.Contains(name, ".tmp") {
			return nil
		}
		if now.Sub(info.ModTime()) > age {
			if os.Remove(path) == nil {
				removed = append(removed, path)
			}
		}
		return nil
	})
	return removed
}

// SweepCrashed reclaims artifacts orphaned by dead runs, for an explicit
// resume: every temp file regardless of age, and every lease whose lock
// it can take itself — a lease whose holder is gone. A live holder keeps
// its lock, so its lease is untouched. Returns the removed paths for the
// resume report.
func (c *Cache) SweepCrashed() []string {
	removed := sweepTmp(c.dir, 0)
	filepath.Walk(c.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(info.Name(), ".lease") {
			return nil
		}
		if f, _, state := lockPath(path, os.O_RDONLY); state == leaseWon {
			releaseLease(f)
			removed = append(removed, path)
		}
		return nil
	})
	return removed
}

// envelope is the on-disk entry format: the result value plus a SHA-256
// of its bytes for integrity checking.
type envelope struct {
	Sum   string          `json:"sum"`
	Value json.RawMessage `json:"value"`
}

func (c *Cache) path(k Key) string {
	hx := k.String()
	return filepath.Join(c.dir, hx[:2], hx[2:]+".json")
}

// Get loads the entry for k and decodes it with decode. Any failure —
// missing or unreadable file, unparsable envelope, checksum mismatch,
// decode error, even a decode panic — is a miss; damaged entries are
// removed so the recomputed result can be stored cleanly. ctx scopes
// the fault evaluation (injected delays honour request cancellation);
// nil selects context.Background.
func (c *Cache) Get(ctx context.Context, k Key, decode func([]byte) (any, error)) (v any, ok bool) {
	if k.IsZero() {
		return nil, false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Adversarial entry bytes (or an injected fault) may panic the
	// decoder; a cache read must degrade to a miss, never crash the run.
	defer func() {
		if recover() != nil {
			v, ok = nil, false
		}
	}()
	op := "cache.get:" + k.String()
	if err := c.inj.Do(ctx, op); err != nil {
		return nil, false
	}
	path := c.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	data = c.inj.Data(op, data)
	var env envelope
	if err := json.Unmarshal(data, &env); err == nil && env.Sum == valueSum(env.Value) {
		if v, err := decode(env.Value); err == nil {
			return v, true
		}
	}
	os.Remove(path) // corrupted or stale-format entry
	return nil, false
}

// Put stores value (already-encoded result bytes) under k atomically. A
// failed or faulted Put loses only cache warmth, never data: the caller
// already holds the result. ctx scopes the fault evaluation; nil selects
// context.Background.
func (c *Cache) Put(ctx context.Context, k Key, value []byte) (err error) {
	if k.IsZero() {
		return fmt.Errorf("runner: Put with zero key")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: cache put panicked: %v", p)
		}
	}()
	if err := c.inj.Do(ctx, "cache.put:"+k.String()); err != nil {
		return err
	}
	env, err := json.Marshal(envelope{Sum: valueSum(value), Value: value})
	if err != nil {
		return err
	}
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(env); err != nil {
		tmp.Close() //splash:allow durability cleanup close on an already-failing path; the Write error is what the caller sees and the temp file is removed
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func valueSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"splash2/internal/core"
	"splash2/internal/runner"
	"splash2/internal/serve"
)

// serve-mix: a splashd server on a loopback listener, driven in this
// process by a closed loop of two clients (each sends its next request
// only after the previous one answered), over a fixed list of
// single-program sweep-scale requests in an order drawn from the seed.

// mixRequest is one experiment request of the list.
type mixRequest struct{ kind, app string }

func (q mixRequest) String() string { return q.kind + "/" + q.app }

func (q mixRequest) path() string {
	return "/v1/experiments?kind=" + q.kind + "&apps=" + q.app + "&scale=sweep&mode=record-replay"
}

// mixRequests is the request list: workingsets and linesize for each
// program, shuffled by seed. The seed decides only the order.
func mixRequests(apps []string, seed int64) []mixRequest {
	var list []mixRequest
	for _, app := range apps {
		list = append(list, mixRequest{core.KindWorkingSets, app}, mixRequest{core.KindLineSize, app})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// Phase shares of the run's seconds: cold passes start while under
// coldShare of the time has gone; the warm and 304 phases then get a
// fixed share each. Each phase also runs until its percentiles have ten
// samples beyond them: minMedianSamples for a median, minTailSamples for
// a 99th percentile.
const (
	coldShare   = 0.5
	warmShare   = 0.2
	notModShare = 0.2

	minMedianSamples = 20
	minTailSamples   = 1000
)

// daemon is one splashd instance: engine, server and listener.
type daemon struct {
	engine *core.Engine
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error // Serve's return value
}

// startDaemon opens an engine over the cache directory, mounts the
// server on a fresh loopback listener and waits until /healthz answers
// 200; it returns the time that took.
func startDaemon(dir string, c *client) (*daemon, float64, error) {
	start := time.Now()
	e, err := core.NewEngine(core.EngineOptions{Workers: workers, CacheDir: dir})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, 0, err
	}
	d := &daemon{
		engine: e,
		srv:    serve.New(context.Background(), e, serve.Options{}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	for {
		rep, err := c.get(d.base+"/healthz", "")
		if err == nil && rep.status == http.StatusOK {
			break
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("splashd did not become healthy: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return d, time.Since(start).Seconds(), nil
}

// metrics fetches /metrics.
func (d *daemon) metrics(c *client) (serve.Metrics, error) {
	var m serve.Metrics
	rep, err := c.get(d.base+"/metrics", "")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(rep.body, &m)
}

// stop drains the server, shuts the listener, waits for Serve to return
// and closes the engine (writing the journal's run.end).
func (d *daemon) stop() error {
	d.srv.BeginDrain(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	if cerr := d.engine.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop client with a single connection.
type client struct {
	id string
	hc *http.Client
}

func newClient(id string) *client {
	return &client{id: id, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one answered request as the client saw it.
type reply struct {
	status int
	body   []byte
	etag   string
	ms     float64 // client-measured latency
}

func (c *client) get(url, ifNoneMatch string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("X-Client-ID", c.id)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: body, etag: resp.Header.Get("ETag"), ms: ms}, nil
}

// mix is the state of one serve-mix run.
type mix struct {
	rc      *runCtx
	list    []mixRequest
	clients [2]*client

	// The cold answer to each request: body and ETag.
	bodies map[mixRequest][]byte
	etags  map[mixRequest]string

	cold, disk, warm, notMod []float64 // client latencies, ms
	coldWalls, coldAllocs    []float64
	setups                   []float64
	warmSeconds              float64
	warmRequests             int

	// Server-side totals over every daemon of the run.
	counts       runner.Counts
	appends      int64
	flights      int64
	coalesced    int64 // joined a live flight, cold phase
	coldRequests int64
	shed         int64
	serverMicros int64
	clientMicros float64
	lastDir      string // cache directory of the last cold pass
}

func newMix(rc *runCtx) *mix {
	m := &mix{rc: rc, list: mixRequests(rc.apps, rc.seed),
		bodies: map[mixRequest][]byte{}, etags: map[mixRequest]string{}}
	m.clients[0], m.clients[1] = newClient("c0"), newClient("c1")
	return m
}

func (m *mix) close() {
	m.clients[0].close()
	m.clients[1].close()
}

// answer records one experiment reply in the tally.
func (m *mix) answer(rep reply) {
	m.rc.res.ops(1, 0)
	m.clientMicros += rep.ms * 1000
}

// shutdown folds a daemon's /metrics and counters into the totals and
// stops it.
func (m *mix) shutdown(d *daemon, coldPhase bool) error {
	mt, err := d.metrics(m.clients[0])
	if err != nil {
		d.stop()
		return err
	}
	m.flights += mt.Coalescing.Flights
	if coldPhase {
		m.coalesced += mt.Coalescing.Coalesced
	}
	m.shed += mt.Coalescing.Rejected + mt.Queue.ShedByCap
	m.serverMicros += mt.Endpoints["experiments"].TotalMicros
	m.counts = addCounts(m.counts, d.engine.Counts())
	if j := d.engine.Journal(); j != nil {
		m.appends += j.Appended()
	}
	return d.stop()
}

// coldPass answers the list on a fresh cache directory: for each
// request both clients send at the same moment, so the pair coalesces,
// and both must receive the same bytes. It returns the pass's wall time.
func (m *mix) coldPass(t *tracer, parent int) (float64, error) {
	dir, err := m.rc.tempDir("serve-")
	if err != nil {
		return 0, err
	}
	if m.lastDir != "" {
		os.RemoveAll(m.lastDir)
	}
	m.lastDir = dir
	d, _, err := startDaemon(dir, m.clients[0])
	if err != nil {
		return 0, err
	}
	runtime.GC()
	a0 := allocBytes()
	wall, err := t.do("serve.cold", parent, func(id int) error {
		for _, q := range m.list {
			var reps [2]reply
			var errs [2]error
			var wg sync.WaitGroup
			gate := make(chan struct{})
			for i, c := range m.clients {
				wg.Add(1)
				go func(i int, c *client) {
					defer wg.Done()
					<-gate
					t.do("serve.request", id, func(int) error {
						reps[i], errs[i] = c.get(d.base+q.path(), "")
						return nil
					})
				}(i, c)
			}
			close(gate)
			wg.Wait()
			for i := range reps {
				if errs[i] != nil {
					return errs[i]
				}
				m.answer(reps[i])
				m.rc.res.verify("cold status 200", checkStatus(q.String(), http.StatusOK, reps[i].status))
				m.cold = append(m.cold, reps[i].ms)
			}
			m.rc.res.verify("coalesced pair bodies identical", checkSameBody(q.String(), reps[0].body, reps[1].body))
			m.bodies[q], m.etags[q] = reps[0].body, reps[0].etag
			m.coldRequests += 2
		}
		return nil
	})
	m.coldAllocs = append(m.coldAllocs, float64(allocBytes()-a0)/1e6)
	if err != nil {
		d.stop()
		return 0, err
	}
	m.coldWalls = append(m.coldWalls, wall)
	return wall, m.shutdown(d, true)
}

// restart starts a daemon over the last cold pass's cache directory
// and returns it with the time until it answered /healthz.
func (m *mix) restart(t *tracer, parent int) (d *daemon, setup float64, err error) {
	_, err = t.do("serve.restart", parent, func(int) (err error) {
		d, setup, err = startDaemon(m.lastDir, m.clients[0])
		return err
	})
	return d, setup, err
}

// split runs fn on both clients at once, client i taking the requests
// at positions i, i+2, ... of the list, each in a closed loop.
func (m *mix) split(fn func(c *client, q mixRequest) error) error {
	var wg sync.WaitGroup
	var errs [2]error
	for i, c := range m.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := i; k < len(m.list) && errs[i] == nil; k += 2 {
				errs[i] = fn(c, m.list[k])
			}
		}(i, c)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// loop runs both clients in a closed loop over the list for d seconds
// and until together they completed minTailSamples requests, each
// client starting at its own half; it returns how many completed.
func (m *mix) loop(d float64, fn func(c *client, q mixRequest) error) (int, error) {
	var wg sync.WaitGroup
	var errs [2]error
	var n [2]int
	start := time.Now()
	for i, c := range m.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := i * len(m.list) / 2; (time.Since(start).Seconds() < d || n[i] < minTailSamples/2) && errs[i] == nil; k++ {
				errs[i] = fn(c, m.list[k%len(m.list)])
				n[i]++
			}
		}(i, c)
	}
	wg.Wait()
	if errs[0] != nil {
		return 0, errs[0]
	}
	return n[0] + n[1], errs[1]
}

// diskPass restarts over the cold cache and answers the list once from
// disk.
func (m *mix) diskPass(t *tracer, parent int) error {
	d, _, err := m.restart(t, parent)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	_, err = t.do("serve.disk", parent, func(id int) error {
		return m.split(func(c *client, q mixRequest) error {
			var rep reply
			var err error
			t.do("serve.request", id, func(int) error { rep, err = c.get(d.base+q.path(), ""); return nil })
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			m.answer(rep)
			m.disk = append(m.disk, rep.ms)
			m.rc.res.verify("disk status 200", checkStatus(q.String(), http.StatusOK, rep.status))
			m.rc.res.verify("disk body equals cold body", checkSameBody(q.String(), m.bodies[q], rep.body))
			return nil
		})
	})
	if err != nil {
		d.stop()
		return err
	}
	return m.shutdown(d, false)
}

// warmAndNotModified runs the memo-hit and 304 phases on one daemon.
func (m *mix) warmAndNotModified(t *tracer, parent int) error {
	d, _, err := m.restart(t, parent)
	if err != nil {
		return err
	}
	// Load every answer into the memo first; these requests are not
	// warm samples.
	var mu sync.Mutex
	if err := m.split(func(c *client, q mixRequest) error {
		rep, err := c.get(d.base+q.path(), "")
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		m.answer(rep)
		m.rc.res.verify("warm status 200", checkStatus(q.String(), http.StatusOK, rep.status))
		return nil
	}); err != nil {
		d.stop()
		return err
	}
	var n int
	m.warmSeconds, err = t.do("serve.warm", parent, func(id int) (err error) {
		n, err = m.loop(warmShare*m.rc.seconds, func(c *client, q mixRequest) error {
			var rep reply
			var err error
			t.do("serve.request", id, func(int) error { rep, err = c.get(d.base+q.path(), ""); return nil })
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			m.answer(rep)
			m.warm = append(m.warm, rep.ms)
			m.rc.res.verify("warm status 200", checkStatus(q.String(), http.StatusOK, rep.status))
			m.rc.res.verify("warm body equals cold body", checkSameBody(q.String(), m.bodies[q], rep.body))
			return nil
		})
		return err
	})
	if err == nil {
		m.warmRequests = n
		_, err = t.do("serve.notmod", parent, func(id int) error {
			_, err := m.loop(notModShare*m.rc.seconds, func(c *client, q mixRequest) error {
				var rep reply
				var err error
				t.do("serve.request", id, func(int) error { rep, err = c.get(d.base+q.path(), m.etags[q]); return nil })
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				m.answer(rep)
				m.notMod = append(m.notMod, rep.ms)
				m.rc.res.verify("304 empty with same ETag", checkNotModified(q.String(), rep.status, rep.body, rep.etag, m.etags[q]))
				return nil
			})
			return err
		})
	}
	if err != nil {
		d.stop()
		return err
	}
	return m.shutdown(d, false)
}

// drive runs the whole mix: cold and disk passes while under coldShare
// of the run's seconds and until the disk phase has minMedianSamples
// samples; then setupSamples timed restarts on a collected heap (a
// restart right after a cold pass reads slower); then the warm and 304
// phases.
func (m *mix) drive(t *tracer, parent int) error {
	start := time.Now()
	for time.Since(start).Seconds() < coldShare*m.rc.seconds || len(m.disk) < minMedianSamples {
		if _, err := m.coldPass(t, parent); err != nil {
			return err
		}
		if err := m.diskPass(t, parent); err != nil {
			return err
		}
	}
	runtime.GC()
	for len(m.setups) < setupSamples {
		d, setup, err := m.restart(t, parent)
		if err != nil {
			return err
		}
		m.setups = append(m.setups, setup)
		if err := m.shutdown(d, false); err != nil {
			return err
		}
	}
	return m.warmAndNotModified(t, parent)
}

// setLatency records a client-latency percentile with its sample count;
// a percentile with fewer than ten samples beyond it is an error.
func setLatency(r *result, name string, ms []float64, p float64) error {
	v, ok := percentile(ms, p)
	if !ok {
		return fmt.Errorf("%s: %d samples leave fewer than ten beyond the %gth percentile", name, len(ms), p)
	}
	r.set(name, v, len(ms))
	return nil
}

func runServeMix(rc *runCtx) error {
	m := newMix(rc)
	defer m.close()
	if err := m.drive(nil, 0); err != nil {
		return err
	}
	r := rc.res
	r.setMedian("wall_s", m.coldWalls)
	r.setMedian("alloc_mb", m.coldAllocs)
	r.setMedian("setup_s", m.setups)
	r.set("warm_rps", float64(m.warmRequests)/m.warmSeconds, m.warmRequests)
	for _, l := range []struct {
		name string
		ms   []float64
		p    float64
	}{
		{"cold_ms_p50", m.cold, 50}, {"disk_ms_p50", m.disk, 50},
		{"warm_ms_p50", m.warm, 50}, {"warm_ms_p99", m.warm, 99},
		{"notmod_ms_p50", m.notMod, 50}, {"notmod_ms_p99", m.notMod, 99},
	} {
		if err := setLatency(r, l.name, l.ms, l.p); err != nil {
			return err
		}
	}
	r.ops(m.counts.Submitted, m.counts.Failed+m.counts.Skipped)
	return nil
}

// tracedServeMix runs the whole mix with a span around every request
// and phase, then one untraced cold pass (the overhead baseline), then
// the layers underneath on the same inputs.
func tracedServeMix(rc *runCtx) error {
	r, t := rc.res, rc.tr
	m := newMix(rc)
	defer m.close()
	var mixID int
	if _, err := t.do("serve.mix", 0, func(id int) error {
		mixID = id
		return m.drive(t, id)
	}); err != nil {
		return err
	}
	base := newMix(rc)
	baseWall, err := base.coldPass(nil, 0)
	base.close()
	if err != nil {
		return err
	}
	os.RemoveAll(base.lastDir)
	// Unattributed: cold-phase time outside every request span.
	var gap float64
	for _, s := range t.snapshot() {
		if s.Name == "serve.cold" && s.Parent == mixID {
			gap += t.uncovered(s.ID)
		}
	}
	r.set("trace_overhead", median(m.coldWalls)/baseWall-1, 0)
	r.set("core.unattributed_s", gap, 0)
	zeroMetrics(r, sectionMetrics...)
	r.set("core.unstable_rows", 0, 0)
	r.set("memsys.stack.sampled_gap", 0, 0)
	r.ops(m.counts.Submitted, m.counts.Failed+m.counts.Skipped)
	setRunnerMetrics(r, m.counts, m.appends)
	r.set("serve.flights", float64(m.flights), 0)
	r.set("serve.coalesced_ratio", float64(m.coalesced)/float64(m.coldRequests), 0)
	r.set("serve.shed", float64(m.shed), 0)
	r.set("serve.server_share", float64(m.serverMicros)/m.clientMicros, 0)

	dst, err := rc.tempDir("cacheio-")
	if err != nil {
		return err
	}
	if err := timeCacheIO(r, t, 0, m.lastDir, dst); err != nil {
		return err
	}
	// The requests' recordings and replays: 32 processors at sweep
	// scale, the 4-way Figure-3 sizes and the Figure-7 line sizes.
	plan := layerPlan{
		apps: rc.apps, procs: 32, scale: core.SweepScale,
		assocs: []int{4}, cacheSizes: core.DefaultCacheSizes(), lineSizes: core.DefaultLineSizes(),
	}
	var tot layerTotals
	if _, err := t.do("layers", 0, func(id int) (err error) {
		tot, err = plan.run(t, id)
		return err
	}); err != nil {
		return err
	}
	setLayerMetrics(r, t, tot)
	zeroMetrics(r, traceFileMetrics...)
	return nil
}

// serve.go is the serve-mix workload: dlserve in process behind a loopback
// listener with a disk store, driven by closed-loop clients that submit a
// spec and then long-poll its result.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/store"
	"repro/internal/spec"
)

const (
	// serveClients is the closed-loop client count: one per core of the
	// 2-core reference host, each with at most one request in flight.
	serveClients = 2
	// freshShare is the share of requests that submit a spec the server
	// has never seen; the rest repeat one this run already completed. With
	// misses in the majority the median latency sits inside the miss mode,
	// not on the boundary between ~1 ms hits and ~100 ms misses, where it
	// would jump between the two from run to run.
	freshShare = 2.0 / 3
	// serverStarts is how many times set-up is measured: a start takes
	// well under a millisecond, so its median needs many.
	serverStarts = 51
	// verifyEvery selects the fresh jobs recomputed with spec.RunSim.
	verifyEvery = 16
	// jobTimeout bounds one submit-and-fetch round trip.
	jobTimeout = time.Minute
)

// freshSpec is the idx-th distinct spec of a serve-mix run: bfs with an
// input seed of its own, derived from the run's seed.
func freshSpec(seed int64, idx int, quick bool) spec.Spec {
	scale := 12
	if quick {
		scale = 8
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	// Never 0, which the spec would normalize to the default seed.
	return spec.Spec{Kind: spec.KindSim, Workload: "bfs", Scale: scale, Seed: int64(z>>1) | 1}
}

// liveServer is a dlserve instance on a loopback port.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve returns
	c    *client.Client
}

// startServer opens a disk store in dir, starts the server, and returns
// once /healthz answers.
func startServer(dir string, tr *http.Transport) (*liveServer, error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{srv: serve.NewServer(serve.Config{Workers: 2, Store: st}), done: make(chan struct{})}
	l.hs = &http.Server{Handler: l.srv}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	l.c = client.NewWithOptions("http://"+ln.Addr().String(), client.Options{HTTPClient: &http.Client{Transport: tr}})
	if _, err := l.c.Health(context.Background()); err != nil {
		l.stop()
		return nil, err
	}
	return l, nil
}

// stop shuts the listener down, then the workers.
func (l *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx) // the clients are idle by now; a timeout just closes their connections
	<-l.done
	l.srv.Close()
}

// sample is one submit-to-result round trip.
type sample struct {
	ms    float64
	fresh int // index of the fresh spec submitted, or -1 for a repeat
	end   time.Time
	bad   []string
}

// doneJob is a completed fresh spec, available for repeats.
type doneJob struct {
	idx  int
	spec spec.Spec // normalized
	hash string
}

// mix is the client side of a serve-mix run.
type mix struct {
	seed  int64
	quick bool
	c     *client.Client
	rngs  [serveClients]*rand.Rand

	mu      sync.Mutex
	next    int               // next fresh index
	done    []doneJob         // completed fresh jobs
	bodies  map[string][]byte // miss body by spec hash
	samples []sample          // every round trip of the run
}

// phase is one load phase: its samples and the server's counter deltas.
type phase struct {
	samples []sample
	window  time.Duration // phase start to the last completion
	ctrs    map[string]float64
}

// load runs the closed loop for d and returns the phase.
func (m *mix) load(d time.Duration) (phase, error) {
	before, err := m.scrape()
	if err != nil {
		return phase{}, err
	}
	first := len(m.samples)
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for _, rng := range m.rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				s := m.one(rng)
				m.mu.Lock()
				m.samples = append(m.samples, s)
				m.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after, err := m.scrape()
	if err != nil {
		return phase{}, err
	}
	p := phase{samples: m.samples[first:], ctrs: map[string]float64{}}
	for _, s := range p.samples {
		p.window = max(p.window, s.end.Sub(start))
	}
	for name, v := range after {
		p.ctrs[name] = v - before[name]
	}
	p.ctrs["http_requests"]-- // the closing scrape counts itself
	return p, nil
}

// one submits a fresh spec, or with probability 1-freshShare repeats a
// completed one, and fetches the result with a long poll.
func (m *mix) one(rng *rand.Rand) sample {
	s := sample{fresh: -1}
	var sp spec.Spec
	var want []byte
	m.mu.Lock()
	if len(m.done) == 0 || rng.Float64() < freshShare {
		s.fresh = m.next
		m.next++
		sp = freshSpec(m.seed, s.fresh, m.quick)
	} else {
		d := m.done[rng.Intn(len(m.done))]
		sp, want = d.spec, m.bodies[d.hash]
	}
	m.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	t0 := time.Now()
	st, err := m.c.Submit(ctx, sp)
	var body []byte
	if err == nil {
		body, err = m.c.Result(ctx, st.ID, true)
	}
	s.end = time.Now()
	s.ms = ms(s.end.Sub(t0))
	switch {
	case err != nil:
		s.bad = append(s.bad, err.Error())
	case s.fresh < 0 && !st.Cached:
		s.bad = append(s.bad, "a repeat of a completed spec was recomputed, not served from the cache")
	case s.fresh < 0 && !bytes.Equal(body, want):
		s.bad = append(s.bad, "cache-hit body differs from its miss body")
	case s.fresh >= 0:
		n, err := sp.Normalized()
		var h string
		if err == nil {
			h, err = n.Hash()
		}
		if err != nil {
			s.bad = append(s.bad, err.Error())
			break
		}
		m.mu.Lock()
		m.done = append(m.done, doneJob{s.fresh, n, h})
		m.bodies[h] = body
		m.mu.Unlock()
	}
	return s
}

// scrape reads the server's counters from /metrics.
func (m *mix) scrape() (map[string]float64, error) {
	b, err := m.c.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	ctrs := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		name, isCounter := strings.CutSuffix(strings.TrimPrefix(name, "dlserve_"), "_total")
		if !ok || !isCounter {
			continue
		}
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			ctrs[name] = x
		}
	}
	return ctrs, nil
}

// verify recomputes every verifyEvery-th fresh job with spec.RunSim and
// returns the problems found, by fresh index. With spans, it also reruns
// the first two fresh jobs through the instrumented decomposed path, whose
// reports must match the served bodies too.
func (m *mix) verify(spans *spanSet) (map[int][]string, []jobRun, error) {
	done := slices.Clone(m.done)
	slices.SortFunc(done, func(a, b doneJob) int { return a.idx - b.idx })
	bad := map[int][]string{}
	var traced []jobRun
	for _, d := range done {
		body := m.bodies[d.hash]
		if d.idx%verifyEvery == 0 {
			run, err := d.spec.RunSim(spec.SimHooks{})
			if err != nil {
				return nil, nil, err
			}
			var text bytes.Buffer
			run.Report(&text)
			if !bytes.Equal(text.Bytes(), body) {
				bad[d.idx] = append(bad[d.idx], "served body differs from the spec.RunSim report")
			}
		}
		if spans != nil && d.idx < 2 {
			jr, err := runJob(simJob{label: "fresh", spec: d.spec, hash: d.hash}, spans)
			if err != nil {
				return nil, nil, err
			}
			if jr.digest != sha(body) {
				bad[d.idx] = append(bad[d.idx], "traced report differs from the served body")
			}
			traced = append(traced, jr)
		}
	}
	if spans != nil && len(traced) < 2 {
		return nil, nil, fmt.Errorf("only %d fresh jobs completed", len(traced))
	}
	return bad, traced, nil
}

// runServeMix measures set-up as the median of several server starts,
// warms the last server up, then runs the closed loop for o.seconds. A
// traced run splits the time into an untraced and a profiled phase.
func runServeMix(o options) (*report, error) {
	r := newReport("serve-mix")
	dir, err := os.MkdirTemp(o.work, "serve-mix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()

	var setups []float64
	var srv *liveServer
	for i := range serverStarts {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(filepath.Join(dir, fmt.Sprint("store", i)), tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	m := &mix{seed: o.seed, quick: o.quick, c: srv.c, bodies: map[string][]byte{}}
	for i := range m.rngs {
		m.rngs[i] = rand.New(rand.NewSource(o.seed*serveClients + int64(i)))
	}
	warm := 2 * time.Second
	if o.quick {
		warm = 200 * time.Millisecond
	}
	if _, err := m.load(warm); err != nil {
		return nil, err
	}
	timed := time.Duration(o.seconds * float64(time.Second))
	var spans *spanSet
	if !o.trace {
		p, err := m.load(timed)
		if err != nil {
			return nil, err
		}
		addServeEndToEnd(r, p, setups)
		addServeDetail(r, p)
	} else {
		untraced, err := m.load(timed / 2)
		if err != nil {
			return nil, err
		}
		var traced phase
		shares, err := profiled(o.work, func() error {
			traced, err = m.load(timed / 2)
			return err
		})
		if err != nil {
			return nil, err
		}
		addServeDetail(r, traced)
		addShares(r, shares)
		addOverhead(r, untraced.opsRate(), traced.opsRate())
		spans = new(spanSet)
	}

	bad, runs, err := m.verify(spans)
	if err != nil {
		return nil, err
	}
	for i, s := range m.samples {
		if s.fresh >= 0 {
			s.bad = append(s.bad, bad[s.fresh]...)
		}
		r.tally(fmt.Sprintf("job %d", i), s.bad)
	}
	if spans != nil {
		addVerifyLayers(r, spans, runs)
	}
	r.finish()
	return r, nil
}

// opsRate is the phase's HTTP requests served per second.
func (p phase) opsRate() float64 { return p.ctrs["http_requests"] / p.window.Seconds() }

// addServeEndToEnd reports the end-to-end metrics of the timed phase. A job
// is one submit-to-result round trip; an op is one HTTP request served.
func addServeEndToEnd(r *report, p phase, setups []float64) {
	var lat []float64
	for _, s := range p.samples {
		lat = append(lat, s.ms)
	}
	r.add("ops_per_s", p.opsRate(), "1/s")
	r.add("setup_s", median(setups), "s")
	r.add("jobs_per_s", float64(len(p.samples))/p.window.Seconds(), "1/s")
	r.add("job_p50_ms", quantile(lat, 0.5), "ms")
	r.add("job_p90_ms", quantile(lat, 0.9), "ms")
	r.add("job_p99_ms", quantile(lat, 0.99), "ms")
	r.add("job_samples", float64(len(lat)), "count")
}

// addServeDetail reports the hit and miss latencies and the cache tiers'
// hit ratios of a phase. A repeat is answered by the in-memory LRU or, once
// evicted from it, by the disk store.
func addServeDetail(r *report, p phase) {
	var hit, miss []float64
	for _, s := range p.samples {
		if s.fresh < 0 {
			hit = append(hit, s.ms)
		} else {
			miss = append(miss, s.ms)
		}
	}
	r.add("serve.hit_p50_ms", median(hit), "ms")
	r.add("serve.miss_p50_ms", median(miss), "ms")
	r.add("serve.hits", float64(len(hit)), "count")
	r.add("serve.misses", float64(len(miss)), "count")
	submits := uint64(p.ctrs["cache_hits"] + p.ctrs["cache_misses"])
	r.add("serve.cache_hit_ratio", ratio(uint64(p.ctrs["cache_hits"]), submits), "ratio")
	r.add("serve.store_hit_ratio", ratio(uint64(p.ctrs["store_hits"]), submits), "ratio")
}

// addVerifyLayers reports the model layers of the jobs the server runs,
// from the instrumented reruns of the first two fresh specs.
func addVerifyLayers(r *report, spans *spanSet, runs []jobRun) {
	var runNS int64
	var system, inputs, render time.Duration
	var counts exactCounts
	var alloc uint64
	for _, jr := range runs {
		runNS += jr.run.Nanoseconds()
		system += jr.system
		inputs += jr.inputs
		render += jr.render
		counts.add(jr.counts)
		alloc += jr.allocBytes
	}
	addSpans(r, spans, spans, runNS)
	r.add("setup.system_s", system.Seconds(), "s")
	r.add("setup.workload_s", inputs.Seconds(), "s")
	r.add("ingest.records_per_s", 0, "1/s")
	r.add("render_s", render.Seconds(), "s")
	addCounts(r, counts, alloc)
}

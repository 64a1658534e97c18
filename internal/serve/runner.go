// runner.go holds the Server state, the worker pool and the job
// execution path, including the per-job observability plumbing.
//
// Concurrency audit (the reason for the two-lock design): every
// simulation-layer structure in this repository — metrics.Registry
// included — is single-goroutine by contract. The service upholds that
// contract by giving each job a private Collector (only that job's
// worker touches it while the simulation runs) and serializing all
// shared aggregation under mmu: workers merge their finished job's
// registry into the server registry, and /metrics scrapes render it,
// strictly one at a time. Server bookkeeping (jobs, queue, cache,
// states) lives under the separate mu so a long render never blocks
// submissions. The TestConcurrentJobsMetricsRace test drives two jobs
// plus concurrent scrapes under -race to keep this honest.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/serve/store"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Server is the simulation service. Create with NewServer; it implements
// http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// mu guards jobs, jobOrder, inflight, nextID, draining, running and
	// the cache. The queue channel is only closed under mu (via
	// draining), never sent to after draining is set.
	mu       sync.Mutex
	jobs     map[string]*Job
	jobOrder []string
	inflight map[string]*Job
	nextID   int
	draining bool
	running  int
	cache    *resultCache
	queue    chan *Job
	wg       sync.WaitGroup

	// mmu guards the shared metrics state: the counter set and the
	// server-wide registry that per-job registries merge into.
	mmu  sync.Mutex
	ctrs stats.Counters
	reg  *metrics.Registry

	start time.Time

	// runSpec executes one spec; tests stub it to control timing.
	runSpec func(ctx context.Context, sp spec.Spec, progress func(done, total int), coll *metrics.Collector) (*Result, error)
}

func newServerCore(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		cache:      newResultCache(cfg.CacheEntries),
		queue:      make(chan *Job, cfg.QueueDepth),
		reg:        metrics.NewRegistry(),
		start:      time.Now(),
	}
	s.runSpec = func(ctx context.Context, sp spec.Spec, progress func(int, int), coll *metrics.Collector) (*Result, error) {
		return executeSpec(ctx, sp, s.cfg.ExpJobs, s.cfg.Traces, progress, coll)
	}
	if cfg.Runner != nil {
		s.runSpec = cfg.Runner
	}
	// Pre-register the service counters at zero so every scrape exposes
	// the full set — a dashboard watching cache_evictions_total must not
	// have to wait for the first eviction to learn the series exists.
	names := []string{
		"http.requests", "jobs.submitted", "jobs.completed", "jobs.failed",
		"jobs.canceled", "jobs.deduped", "queue.rejects",
		"cache.hits", "cache.misses", "cache.evictions",
		"results.hits", "results.misses",
	}
	if cfg.Store != nil {
		names = append(names, "store.hits", "store.writes", "store.errors")
	}
	if cfg.Traces != nil {
		names = append(names, "traces.uploaded", "traces.errors")
	}
	for _, n := range names {
		s.ctrs.Add(n, 0)
	}
	s.routes()
	return s
}

// count bumps a named service counter under the metrics lock.
func (s *Server) count(name string) {
	s.mmu.Lock()
	s.ctrs.Inc(name)
	s.mmu.Unlock()
}

// newJobLocked allocates and registers a job record. Caller holds mu.
func (s *Server) newJobLocked(n spec.Spec, hash string) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID: "j" + strconv.Itoa(s.nextID), Hash: hash, Spec: n,
		State: JobQueued, submitted: time.Now(),
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	s.trimJobsLocked()
	return j
}

// trimJobsLocked forgets the oldest terminal jobs beyond maxJobHistory.
// Queued/running jobs are never evicted.
func (s *Server) trimJobsLocked() {
	if len(s.jobs) <= maxJobHistory {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) > maxJobHistory && j.State.terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// worker pulls jobs until the queue is closed by Drain/Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end and publishes its terminal state.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if j.State != JobQueued { // canceled while waiting in the queue
		s.mu.Unlock()
		return
	}
	j.State = JobRunning
	j.started = time.Now()
	s.running++
	s.mu.Unlock()

	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}

	// Per-job collector: private to this worker while the simulation
	// runs (the Registry contract), merged into the shared registry
	// under mmu afterwards. Attaching it is passive — it cannot change
	// the result bytes.
	coll := metrics.NewCollector()

	progress := func(done, total int) {
		s.mu.Lock()
		j.Done, j.Total = done, total
		s.mu.Unlock()
	}

	res, err := s.runSpec(ctx, j.Spec, progress, coll)

	wait := j.started.Sub(j.submitted)
	run := time.Since(j.started)

	s.mu.Lock()
	s.running--
	delete(s.inflight, j.Hash)
	j.finished = time.Now()
	var outcome string
	switch {
	case err == nil:
		j.State = JobDone
		j.res = res
		if j.Total == 0 {
			j.Done, j.Total = 1, 1
		}
		if ev := s.cache.put(j.Hash, res); ev > 0 {
			s.evictionsLocked(ev)
		}
		outcome = "jobs.completed"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.State = JobCanceled
		j.Err = err.Error()
		outcome = "jobs.canceled"
	default:
		j.State = JobFailed
		j.Err = err.Error()
		outcome = "jobs.failed"
	}
	close(j.done)
	j.cancel() // release the job's context from baseCtx
	s.mu.Unlock()

	// Spill the finished result to the disk tier outside the lock; a
	// failed write only costs a recompute after restart.
	if j.State == JobDone && s.cfg.Store != nil {
		if serr := s.cfg.Store.Put(j.Hash, res.Text, res.JSON); serr != nil {
			s.count("store.errors")
			s.logf("dlserve: store spill %s: %v", j.Hash[:12], serr)
		} else {
			s.count("store.writes")
		}
	}

	s.mmu.Lock()
	s.ctrs.Inc(outcome)
	s.reg.Hist("job.wait.us").Observe(uint64(wait / time.Microsecond))
	s.reg.Hist("job.run.us").Observe(uint64(run / time.Microsecond))
	if j.State == JobDone {
		s.reg.Merge(coll.Reg)
	}
	s.mmu.Unlock()

	s.logf("dlserve: job %s %s (%s) in %.1fms", j.ID, j.State, j.Hash[:12], float64(run)/float64(time.Millisecond))
}

// evictionsLocked records cache evictions; caller holds mu, so take mmu
// without ordering risk (mmu is always the innermost lock... it is taken
// here while holding mu — keep that one-directional: code holding mmu
// must never take mu).
func (s *Server) evictionsLocked(n int) {
	s.mmu.Lock()
	s.ctrs.Add("cache.evictions", uint64(n))
	s.mmu.Unlock()
}

// executeSpec is the real job runner: render exactly what the equivalent
// CLI invocation would print, plus the structured body.
func executeSpec(ctx context.Context, sp spec.Spec, expJobs int, traces *store.Blobs, progress func(done, total int), coll *metrics.Collector) (*Result, error) {
	n, err := sp.Normalized()
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case spec.KindTrace:
		if traces == nil {
			return nil, fmt.Errorf("serve: trace job without a trace store")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rc, err := traces.Open(n.Trace)
		if err != nil {
			return nil, fmt.Errorf("serve: trace %s: %w", n.Trace[:12], err)
		}
		td, err := ingest.ReadAll(rc)
		_ = rc.Close()
		if err != nil {
			return nil, fmt.Errorf("serve: trace %s: %w", n.Trace[:12], err)
		}
		return simResult(n.ReplayTrace(td, spec.SimHooks{Metrics: coll}))
	case spec.KindSim:
		// One simulation is a single indivisible job: honor cancellation
		// that arrives before the run starts.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return simResult(n.RunSim(spec.SimHooks{Metrics: coll}))
	case spec.KindExp:
		results, err := n.RunExp(ctx, spec.ExpHooks{Jobs: expJobs}, progress)
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		spec.RenderExp(&text, results)
		js, err := json.Marshal(results)
		if err != nil {
			return nil, err
		}
		return &Result{Text: text.Bytes(), JSON: js}, nil
	}
	return nil, fmt.Errorf("serve: unknown spec kind %q", n.Kind)
}

// simResult renders a finished simulation or trace replay as a job
// result: the report text and its JSON body.
func simResult(run *spec.SimRun, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	run.Report(&text)
	js, err := run.JSON()
	if err != nil {
		return nil, err
	}
	return &Result{Text: text.Bytes(), JSON: js}, nil
}

// handleMetrics renders the service counters, the job-latency histograms
// and every merged simulation histogram in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	var buf bytes.Buffer
	s.mmu.Lock()
	s.reg.SetGauge("queue.pending", float64(h.Queued))
	s.reg.SetGauge("jobs.running", float64(h.Running))
	s.reg.SetGauge("cache.entries", float64(h.CacheEntries))
	s.reg.SetGauge("uptime.seconds", h.UptimeSec)
	err := metrics.WriteProm(&buf, "dlserve", s.reg, &s.ctrs)
	s.mmu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = buf.WriteTo(w)
}

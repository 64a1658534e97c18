package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve/store"
	"repro/internal/spec"
)

// smallSim is a fast sim-kind spec used by the real-runner tests.
func smallSim() spec.Spec {
	return spec.Spec{Kind: spec.KindSim, Workload: "p2p", DIMMs: 4, Channels: 2}
}

func postSpec(t *testing.T, ts *httptest.Server, sp spec.Spec) (*http.Response, JobStatus) {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
	}
	return resp, st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State.terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func getResult(t *testing.T, ts *httptest.Server, id, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSubmitPollResult is the happy path: submit, poll to done, fetch
// the text result, and pin it byte-identical against a direct CLI-path
// render of the same spec — and against a second, cache-served
// submission.
func TestSubmitPollResult(t *testing.T) {
	srv := NewServer(Config{Workers: 2, ExpJobs: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, st := postSpec(t, ts, smallSim())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	if st.State != JobQueued || st.ID == "" || len(st.Hash) != 64 {
		t.Fatalf("submit status: %+v", st)
	}

	fin := waitDone(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job finished as %s (%s)", fin.State, fin.Error)
	}
	rresp, body := getResult(t, ts, st.ID, "")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", rresp.StatusCode)
	}

	// The fresh computation the CLI would do.
	run, err := smallSim().RunSim(spec.SimHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	run.Report(&want)
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("served result differs from direct render:\n--- served\n%s--- direct\n%s", body, want.String())
	}

	// Second submission: must be a cache hit with the identical body.
	resp2, st2 := postSpec(t, ts, smallSim())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200", resp2.StatusCode)
	}
	if !st2.Cached || st2.State != JobDone {
		t.Fatalf("resubmit not served from cache: %+v", st2)
	}
	_, body2 := getResult(t, ts, st2.ID, "")
	if !bytes.Equal(body, body2) {
		t.Error("cached result body differs from the freshly computed one")
	}

	// JSON format parses and round-trips the checksum.
	_, jbody := getResult(t, ts, st.ID, "?format=json")
	var parsed struct {
		Checksum string `json:"checksum"`
	}
	if err := json.Unmarshal(jbody, &parsed); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if want := fmt.Sprintf("%#x", run.Checksum); parsed.Checksum != want {
		t.Errorf("JSON checksum %s, want %s", parsed.Checksum, want)
	}
}

// TestExpJobEndToEnd runs a real experiment job and pins the body
// against the shared renderer (the dlbench stdout format).
func TestExpJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grid in -short mode")
	}
	srv := NewServer(Config{Workers: 1, ExpJobs: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sp := spec.Spec{Kind: spec.KindExp, Exp: "table1"}
	_, st := postSpec(t, ts, sp)
	fin := waitDone(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("exp job finished as %s (%s)", fin.State, fin.Error)
	}
	if fin.Done == 0 || fin.Done != fin.Total {
		t.Errorf("progress not completed: %d/%d", fin.Done, fin.Total)
	}
	_, body := getResult(t, ts, st.ID, "")

	results, err := sp.RunExp(context.Background(), spec.ExpHooks{Jobs: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	spec.RenderExp(&want, results)
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("served experiment tables differ from direct render")
	}
}

// TestUnknownJob404 covers status, result and cancel for a bogus id.
func TestUnknownJob404(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/nope"},
		{http.MethodGet, "/v1/jobs/nope/result"},
		{http.MethodDelete, "/v1/jobs/nope"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestBadSpec400 covers malformed and invalid submissions.
func TestBadSpec400(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{"kind":"sim","workload":"no-such-workload"}`,
		`{"kind":"exp","exp":"no-such-experiment"}`,
		`{"kind":"weird"}`,
		`{"unknown_field":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestOutOfRangeSizing400 checks that out-of-range workload sizes are
// rejected at submission with an error naming the field. Each of these
// specs used to be accepted and then panic the worker, taking the whole
// process down; the server must still answer /healthz and run jobs.
func TestOutOfRangeSizing400(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for body, field := range map[string]string{
		`{"kind":"sim","workload":"bfs","scale":-1}`:    "scale",
		`{"kind":"sim","workload":"bfs","scale":31}`:    "scale",
		`{"kind":"sim","workload":"kmeans","scale":3}`:  "scale",
		`{"kind":"sim","workload":"kmeans","scale":40}`: "scale",
		`{"kind":"sim","workload":"bfs","ef":-2}`:       "ef",
		`{"kind":"sim","workload":"bfs","iters":-1}`:    "iters",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), field) {
			t.Errorf("submit %s: HTTP %d %q, want 400 naming %s", body, resp.StatusCode, msg, field)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server stopped answering after bad specs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	_, st := postSpec(t, ts, smallSim())
	if got := waitDone(t, ts, st.ID); got.State != JobDone {
		t.Errorf("job after bad specs: %+v", got)
	}
}

// TestProxyPollingWithoutProxies400 checks that a proxy polling mode on a
// mechanism with no polling proxies is rejected at submission with an
// error naming the field. The mcn spec used to panic the worker inside
// the system build, taking the whole process down; the server must still
// answer /healthz and run jobs.
func TestProxyPollingWithoutProxies400(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, body := range []string{
		`{"kind":"sim","workload":"p2p","mech":"mcn","polling":"proxy"}`,
		`{"kind":"sim","workload":"p2p","mech":"abc-dimm","polling":"proxy+itrpt"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "polling") {
			t.Errorf("submit %s: HTTP %d %q, want 400 naming polling", body, resp.StatusCode, msg)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server stopped answering after bad specs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	_, st := postSpec(t, ts, smallSim())
	if got := waitDone(t, ts, st.ID); got.State != JobDone {
		t.Errorf("job after bad specs: %+v", got)
	}
}

// TestOversizedSystem400 checks that a system shape out of range — more
// than 64 DIMMs on any mechanism, or more channels than DIMMs — is
// rejected at submission with an error naming the field, and that the
// server still answers /healthz and runs jobs. A huge dimms used to be
// accepted and make the worker allocate until the process died; the
// runner here never builds a system, so a regression fails the test
// instead of exhausting memory.
func TestOversizedSystem400(t *testing.T) {
	var ran atomic.Int32
	srv := NewServer(Config{Workers: 1, Runner: func(ctx context.Context, sp spec.Spec, _ func(int, int), _ *metrics.Collector) (*Result, error) {
		ran.Add(1)
		if sp.DIMMs > 64 || sp.Channels > sp.DIMMs {
			t.Errorf("runner got an oversized spec: %+v", sp)
		}
		return &Result{Text: []byte("ok\n")}, nil
	}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for body, field := range map[string]string{
		`{"kind":"sim","workload":"bfs","mech":"mcn","dimms":1048576}`:                   "dimms",
		`{"kind":"sim","workload":"bfs","mech":"host-cpu","dimms":1048576,"channels":1}`: "dimms",
		`{"kind":"sim","workload":"p2p","mech":"aim","dimms":65,"channels":5}`:           "dimms",
		`{"kind":"sim","workload":"p2p","dimms":4,"channels":8}`:                         "channels",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), field) {
			t.Errorf("submit %s: HTTP %d %q, want 400 naming %s", body, resp.StatusCode, msg, field)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("runner ran %d rejected specs", n)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server stopped answering after bad specs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	_, st := postSpec(t, ts, smallSim())
	if got := waitDone(t, ts, st.ID); got.State != JobDone {
		t.Errorf("job after bad specs: %+v", got)
	}
}

// TestTerminalJobReleasesContext checks that a finished job, computed or
// served from the cache, cancels its context: otherwise every request
// would leave a child in the server's base context for the life of the
// process.
func TestTerminalJobReleasesContext(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, run := postSpec(t, ts, smallSim())
	waitDone(t, ts, run.ID)
	_, hit := postSpec(t, ts, smallSim())
	if !hit.Cached {
		t.Fatalf("repeat was not a cache hit: %+v", hit)
	}
	for _, id := range []string{run.ID, hit.ID} {
		if j := srv.lookup(id); j.ctx.Err() == nil {
			t.Errorf("job %s (%s) still holds a live context", id, j.State)
		}
	}
}

// blockingServer installs a stub runner whose jobs block until released,
// for deterministic queue/cancel/drain tests.
func blockingServer(cfg Config) (*Server, chan struct{}) {
	release := make(chan struct{})
	srv := NewServer(cfg)
	srv.runSpec = func(ctx context.Context, sp spec.Spec, progress func(int, int), coll *metrics.Collector) (*Result, error) {
		select {
		case <-release:
			return &Result{Text: []byte("stub\n"), JSON: []byte(`{"stub":true}`)}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return srv, release
}

// uniqueSpec returns specs with distinct hashes (different seeds).
func uniqueSpec(i int) spec.Spec {
	s := smallSim()
	s.Seed = int64(100 + i)
	return s
}

// TestQueueFull429 fills one worker and the whole backlog, then expects
// 429 on the next submission.
func TestQueueFull429(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1, QueueDepth: 2})
	defer func() {
		close(release)
		srv.Close()
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// First job occupies the worker; wait until it actually starts so
	// the queue slots below are deterministic.
	_, st0 := postSpec(t, ts, uniqueSpec(0))
	waitState(t, srv, st0.ID, JobRunning)
	// Two more fill the backlog.
	for i := 1; i <= 2; i++ {
		resp, _ := postSpec(t, ts, uniqueSpec(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("backlog submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	resp, _ := postSpec(t, ts, uniqueSpec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-full submit: HTTP %d, want 429", resp.StatusCode)
	}
	// The rejected job must leave no record behind.
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != 3 {
		t.Errorf("job records after reject: %d, want 3", n)
	}
}

func waitState(t *testing.T, srv *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		st := srv.jobs[id].State
		srv.mu.Unlock()
		if st == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestDedupInflight checks singleflight behavior: an identical spec
// submitted while the first is in flight returns the same job.
func TestDedupInflight(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, st1 := postSpec(t, ts, smallSim())
	resp2, st2 := postSpec(t, ts, smallSim())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dup submit: HTTP %d, want 200", resp2.StatusCode)
	}
	if !st2.Deduped || st2.ID != st1.ID {
		t.Fatalf("dup submit not deduplicated: %+v vs first id %s", st2, st1.ID)
	}
	close(release)
	if fin := waitDone(t, ts, st1.ID); fin.State != JobDone {
		t.Fatalf("deduped job finished as %s", fin.State)
	}
}

// TestCancel covers both cancellation paths: a queued job dies
// immediately; a running job's context is canceled and the job reports
// canceled.
func TestCancel(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1, QueueDepth: 4})
	defer func() {
		close(release)
		srv.Close()
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, running := postSpec(t, ts, uniqueSpec(0))
	waitState(t, srv, running.ID, JobRunning)
	_, queued := postSpec(t, ts, uniqueSpec(1))

	// Cancel the queued job: terminal at once.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != JobCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}

	// Cancel the running job: the stub returns ctx.Err.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitDone(t, ts, running.ID); fin.State != JobCanceled {
		t.Fatalf("running job after cancel: %s (%s)", fin.State, fin.Error)
	}
	// Its result must be Gone, not OK.
	rresp, _ := getResult(t, ts, running.ID, "")
	if rresp.StatusCode != http.StatusGone {
		t.Errorf("canceled job result: HTTP %d, want 410", rresp.StatusCode)
	}
}

// TestDrain checks graceful shutdown: intake rejected with 503, the
// in-flight job finishes, its result stays retrievable, and Drain
// returns once the pool is idle.
func TestDrain(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, st := postSpec(t, ts, smallSim())
	waitState(t, srv, st.ID, JobRunning)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Intake must reject while draining. Drain is asynchronous to this
	// goroutine, so poll briefly for the flag to flip.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postSpec(t, ts, uniqueSpec(9))
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions were not rejected during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("in-flight job after drain: %s", fin.State)
	}
	rresp, body := getResult(t, ts, st.ID, "")
	if rresp.StatusCode != http.StatusOK || !bytes.Equal(body, []byte("stub\n")) {
		t.Errorf("result after drain: HTTP %d body %q", rresp.StatusCode, body)
	}
}

// TestDrainTimeoutCancels checks the forced path: when the drain
// context expires, in-flight jobs are canceled rather than orphaned.
func TestDrainTimeoutCancels(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1, QueueDepth: 4})
	defer close(release)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, st := postSpec(t, ts, smallSim())
	waitState(t, srv, st.ID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain: %v, want DeadlineExceeded", err)
	}
	if fin := waitDone(t, ts, st.ID); fin.State != JobCanceled {
		t.Fatalf("job after forced drain: %s", fin.State)
	}
}

// TestHealthAndMetrics sanity-checks both operational endpoints.
func TestHealthAndMetrics(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, st := postSpec(t, ts, smallSim())
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Workers != 1 {
		t.Errorf("health: %+v", h)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := buf.String()
	for _, want := range []string{
		"dlserve_jobs_submitted_total 1",
		"dlserve_jobs_completed_total 1",
		"dlserve_job_run_us_count 1",
		"# TYPE dlserve_pkt_lat summary", // merged per-job sim histograms
		"dlserve_cache_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentJobsMetricsRace drives two real simulation jobs through
// two workers while hammering /metrics and /healthz — the data-race
// audit for per-job collectors merging into the shared registry. Run
// under -race by ci.sh.
func TestConcurrentJobsMetricsRace(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				resp.Body.Close()
			}
			resp, err = http.Get(ts.URL + "/healthz")
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	var ids [2]string
	for i := range ids {
		_, st := postSpec(t, ts, uniqueSpec(i))
		ids[i] = st.ID
	}
	for _, id := range ids {
		if fin := waitDone(t, ts, id); fin.State != JobDone {
			t.Errorf("job %s: %s (%s)", id, fin.State, fin.Error)
		}
	}
	close(stop)
	wg.Wait()

	// Both jobs' sim histograms must have merged: pkt.lat count > 0 and
	// the scrape is still deterministic between two consecutive reads.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	a.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(a.String(), "dlserve_jobs_completed_total 2") {
		t.Errorf("metrics after two jobs:\n%s", a.String())
	}
}

// TestCacheLRUBound checks the entry bound evicts oldest results.
func TestCacheLRUBound(t *testing.T) {
	c := newResultCache(2)
	r := func(s string) *Result { return &Result{Text: []byte(s)} }
	c.put("a", r("a"))
	c.put("b", r("b"))
	if ev := c.put("c", r("c")); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived past the bound")
	}
	// Touch "b", insert "d": "c" should be the victim.
	c.get("b")
	c.put("d", r("d"))
	if _, ok := c.get("c"); ok {
		t.Error("LRU order ignored recent touch")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestCacheCountersExported drives the hot-tier counters through a
// hit, two misses and an eviction, and asserts all three series appear
// in /metrics with the exact values.
func TestCacheCountersExported(t *testing.T) {
	srv := NewServer(Config{Workers: 1, CacheEntries: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, stA := postSpec(t, ts, uniqueSpec(0)) // miss
	waitDone(t, ts, stA.ID)
	_, stA2 := postSpec(t, ts, uniqueSpec(0)) // hit
	if !stA2.Cached {
		t.Fatalf("resubmit not cached: %+v", stA2)
	}
	_, stB := postSpec(t, ts, uniqueSpec(1)) // miss; completion evicts A
	waitDone(t, ts, stB.ID)

	_, body := getMetrics(t, ts)
	for _, want := range []string{
		"dlserve_cache_hits_total 1",
		"dlserve_cache_misses_total 2",
		"dlserve_cache_evictions_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestCountersPresentAtZero: a fresh server's scrape already carries the
// full counter set — dashboards never see a missing series.
func TestCountersPresentAtZero(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := getMetrics(t, ts)
	for _, want := range []string{
		"dlserve_cache_hits_total 0",
		"dlserve_cache_misses_total 0",
		"dlserve_cache_evictions_total 0",
		"dlserve_jobs_submitted_total 0",
		"dlserve_queue_rejects_total 0",
		"dlserve_results_hits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.String()
}

// TestDiskStoreSurvivesRestart is the spill-tier contract at the service
// level: a result computed by one server generation is served by the
// next — from disk, without recomputing — and the bytes are identical.
func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(Config{Workers: 1, Store: st1})
	ts1 := httptest.NewServer(srv1)
	_, sub := postSpec(t, ts1, smallSim())
	waitDone(t, ts1, sub.ID)
	_, body1 := getResult(t, ts1, sub.ID, "")
	hash := sub.Hash
	ts1.Close()
	srv1.Close()

	// Second generation over the same directory; the runner is rigged to
	// fail so a recompute cannot masquerade as a disk hit.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(Config{Workers: 1, Store: st2})
	srv2.runSpec = func(context.Context, spec.Spec, func(int, int), *metrics.Collector) (*Result, error) {
		return nil, fmt.Errorf("recompute attempted: disk store was bypassed")
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	resp, sub2 := postSpec(t, ts2, smallSim())
	if resp.StatusCode != http.StatusOK || !sub2.Cached || sub2.State != JobDone {
		t.Fatalf("restart submit not served from disk: HTTP %d %+v", resp.StatusCode, sub2)
	}
	_, body2 := getResult(t, ts2, sub2.ID, "")
	if !bytes.Equal(body1, body2) {
		t.Error("disk-served result differs from the original computation")
	}

	// The content-addressed endpoint serves the same bytes.
	rresp, body3 := getResult2(t, ts2, "/v1/results/"+hash)
	if rresp.StatusCode != http.StatusOK || !bytes.Equal(body3, body1) {
		t.Errorf("results-by-hash: HTTP %d, identical=%v", rresp.StatusCode, bytes.Equal(body3, body1))
	}
	if rresp.Header.Get("X-DL-Spec-Hash") != hash {
		t.Errorf("X-DL-Spec-Hash = %q", rresp.Header.Get("X-DL-Spec-Hash"))
	}
	// And misses are 404s.
	rresp, _ = getResult2(t, ts2, "/v1/results/"+strings.Repeat("0", 64))
	if rresp.StatusCode != http.StatusNotFound {
		t.Errorf("bogus hash: HTTP %d, want 404", rresp.StatusCode)
	}
}

func getResult2(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestCorruptSpillRecomputes: a damaged disk entry must not be served —
// the store evicts it and the job runs fresh.
func TestCorruptSpillRecomputes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Workers: 1, Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, sub := postSpec(t, ts, smallSim())
	waitDone(t, ts, sub.ID)
	_, want := getResult(t, ts, sub.ID, "")

	// Damage the spilled file, then force the next submit through the
	// disk path by clearing the hot LRU.
	path := filepath.Join(dir, sub.Hash+".res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.cache = newResultCache(srv.cfg.CacheEntries)
	srv.mu.Unlock()

	resp, sub2 := postSpec(t, ts, smallSim())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corrupt-spill submit: HTTP %d, want 202 (fresh run)", resp.StatusCode)
	}
	fin := waitDone(t, ts, sub2.ID)
	if fin.State != JobDone {
		t.Fatalf("recompute: %s (%s)", fin.State, fin.Error)
	}
	_, got := getResult(t, ts, sub2.ID, "")
	if !bytes.Equal(got, want) {
		t.Error("recomputed result differs from original")
	}
}

// TestAdmitResult: a result held only in the disk store is served by
// LookupResult and promoted into the hot LRU, so only the first lookup
// reads the disk (store.hits stays at 1).
func TestAdmitResult(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Store: st})
	defer srv.Close()

	hash := strings.Repeat("ab", 32)
	if err := st.Put(hash, []byte("spilled bytes\n"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	storeHits := func() uint64 {
		srv.mmu.Lock()
		defer srv.mmu.Unlock()
		return srv.ctrs.Get("store.hits")
	}
	for i := 1; i <= 2; i++ {
		res, ok := srv.LookupResult(hash)
		if !ok || string(res.Text) != "spilled bytes\n" || string(res.JSON) != "{}" {
			t.Fatalf("lookup %d: ok=%v res=%+v", i, ok, res)
		}
		if got := storeHits(); got != 1 {
			t.Fatalf("lookup %d: store.hits = %d, want 1", i, got)
		}
	}
	srv.mu.Lock()
	_, hot := srv.cache.get(hash)
	srv.mu.Unlock()
	if !hot {
		t.Fatal("disk hit not promoted into the hot LRU")
	}
}

// TestWaitAbort408: a ?wait=1 long-poll whose request context dies
// before the job finishes is answered with 408, and the job itself is
// unaffected.
func TestWaitAbort408(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1})
	defer func() {
		close(release)
		srv.Close()
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, st := postSpec(t, ts, smallSim())
	waitState(t, srv, st.ID, JobRunning)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/result?wait=1", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond) // let the handler park on j.done
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted long-poll never returned")
	}
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("aborted wait: HTTP %d, want 408", rec.Code)
	}
	// The job is still running and finishes normally afterwards.
	srv.mu.Lock()
	state := srv.jobs[st.ID].State
	srv.mu.Unlock()
	if state != JobRunning {
		t.Fatalf("job state after aborted wait: %s", state)
	}
}

// TestDrainRacesLongPoll stacks concurrent ?wait=1 long-polls against a
// Drain of the server that is running their job: every waiter must get
// the finished body, and Drain must complete. Run under -race by ci.sh.
func TestDrainRacesLongPoll(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, st := postSpec(t, ts, smallSim())
	waitState(t, srv, st.ID, JobRunning)

	const waiters = 4
	type polled struct {
		code int
		body []byte
		err  error
	}
	results := make(chan polled, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?wait=1")
			if err != nil {
				results <- polled{err: err}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			results <- polled{code: resp.StatusCode, body: buf.Bytes()}
		}()
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // overlap drain with parked waiters
	close(release)

	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < waiters; i++ {
		p := <-results
		if p.err != nil {
			t.Fatalf("long-poll during drain: %v", p.err)
		}
		if p.code != http.StatusOK || !bytes.Equal(p.body, []byte("stub\n")) {
			t.Errorf("long-poll during drain: HTTP %d body %q", p.code, p.body)
		}
	}
}

// TestDrainAbortsLongPollOn410: when a forced drain cancels the job,
// parked long-pollers are released with 410 (canceled), not left
// hanging.
func TestDrainAbortsLongPollGone(t *testing.T) {
	srv, release := blockingServer(Config{Workers: 1})
	defer close(release)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, st := postSpec(t, ts, smallSim())
	waitState(t, srv, st.ID, JobRunning)

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?wait=1")
		if err != nil {
			got <- -1
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain: %v, want DeadlineExceeded", err)
	}
	select {
	case code := <-got:
		if code != http.StatusGone {
			t.Errorf("long-poll after forced drain: HTTP %d, want 410", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still parked after forced drain")
	}
}

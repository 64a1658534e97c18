// cluster_test.go drives multi-node clusters in-process: each node is a
// plain serve.Server behind an httptest listener, a Dispatcher owns
// placement, and "killing" a node swaps its handler for one that aborts
// connections at the transport level — the same failure a SIGKILLed
// process presents to its clients. The process-level version of these
// scenarios lives in cmd/dlsmoke (-cluster -chaos).
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/spec"
)

// fastOpts keeps the retry/backoff envelope tight so dead-node paths
// resolve in milliseconds.
var fastOpts = client.Options{
	RequestTimeout: 2 * time.Second,
	Retries:        2,
	BackoffBase:    time.Millisecond,
	BackoffMax:     4 * time.Millisecond,
}

// swapHandler lets a test replace a node's handler mid-flight.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

type clusterNode struct {
	url string
	ts  *httptest.Server
	sw  *swapHandler
	srv *serve.Server
}

// kill makes the node refuse at the transport level: every request's
// connection is aborted, which clients observe as a transport error (the
// retryable class), exactly like a killed process.
func (n *clusterNode) kill() {
	n.sw.set(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
}

func (n *clusterNode) revive() { n.sw.set(n.srv) }

type runnerFunc = func(ctx context.Context, sp spec.Spec, progress func(int, int), coll *metrics.Collector) (*serve.Result, error)

// echoRunner produces bytes derived only from the spec's content
// address, so every node computes identical results — the determinism
// contract, in miniature. started (optional) receives the hash when
// execution begins; delay stretches the run so a test can kill the node
// mid-job.
func echoRunner(delay time.Duration, started chan<- string) runnerFunc {
	return func(ctx context.Context, sp spec.Spec, _ func(int, int), _ *metrics.Collector) (*serve.Result, error) {
		h, err := sp.Hash()
		if err != nil {
			return nil, err
		}
		if started != nil {
			select {
			case started <- h:
			default:
			}
		}
		if delay > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		js, _ := json.Marshal(map[string]string{"hash": h})
		return &serve.Result{Text: []byte("result:" + h + "\n"), JSON: js}, nil
	}
}

func expected(t *testing.T, sp spec.Spec) string {
	t.Helper()
	h, err := sp.Hash()
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	return "result:" + h + "\n"
}

// startCluster builds n independent nodes and a Dispatcher over them.
// Handlers are swappable so a test can kill and revive a node in place.
func startCluster(t *testing.T, n int, runner runnerFunc, hedgeAfter time.Duration) ([]*clusterNode, *Dispatcher) {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	for i := range nodes {
		srv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 16, CacheEntries: 16, Runner: runner})
		sw := &swapHandler{h: srv}
		ts := httptest.NewServer(sw)
		nodes[i] = &clusterNode{url: ts.URL, ts: ts, sw: sw, srv: srv}
		urls[i] = ts.URL
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
			nd.srv.Close()
		}
	})
	d, err := NewDispatcher(DispatcherConfig{
		Nodes:        urls,
		Client:       fastOpts,
		HedgeAfter:   hedgeAfter,
		PollInterval: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("NewDispatcher: %v", err)
	}
	return nodes, d
}

// runOn executes sp on one node directly, bypassing the Dispatcher, and
// waits for it to finish.
func runOn(t *testing.T, url string, sp spec.Spec) {
	t.Helper()
	ctx := context.Background()
	c := client.NewWithOptions(url, fastOpts)
	st, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("submit to %s: %v", url, err)
	}
	if fin, err := c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || fin.State != serve.JobDone {
		t.Fatalf("wait on %s: state=%s err=%v", url, fin.State, err)
	}
}

// scrape returns a node's /metrics exposition.
func scrape(t *testing.T, url string) string {
	t.Helper()
	mb, err := client.NewWithOptions(url, fastOpts).Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics %s: %v", url, err)
	}
	return string(mb)
}

// metricValue returns the value text of one series in an exposition.
func metricValue(t *testing.T, exposition, series string) string {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			return v
		}
	}
	t.Fatalf("series %s missing from:\n%s", series, exposition)
	return ""
}

// specOwnedBy searches seeds from `from` upwards until the spec's hash
// lands on the wanted owner — deterministic given the ring, no
// randomness involved.
func specOwnedBy(t *testing.T, ring *Ring, owner string, from int64) spec.Spec {
	t.Helper()
	for seed := from; seed < from+4000; seed++ {
		sp := spec.Spec{Kind: spec.KindSim, Workload: "p2p", Seed: seed}
		h, err := sp.Hash()
		if err != nil {
			t.Fatalf("hash: %v", err)
		}
		if ring.Owner(h) == owner {
			return sp
		}
	}
	t.Fatalf("no seed maps to owner %s", owner)
	return spec.Spec{}
}

// TestRouterForwardsToOwner: Dispatcher.Run places a job on its ring
// owner and nowhere else.
func TestRouterForwardsToOwner(t *testing.T) {
	nodes, d := startCluster(t, 3, echoRunner(0, nil), 50*time.Millisecond)
	owner := nodes[1]
	sp := specOwnedBy(t, d.Ring(), owner.url, 1)

	out, err := d.Run(context.Background(), sp)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Node != owner.url || out.Requeues != 0 || out.Cached {
		t.Fatalf("outcome node=%q requeues=%d cached=%v, want fresh run on owner %q",
			out.Node, out.Requeues, out.Cached, owner.url)
	}
	if string(out.Body) != expected(t, sp) {
		t.Fatalf("result = %q, want %q", out.Body, expected(t, sp))
	}
	for _, nd := range nodes {
		want := "0"
		if nd == owner {
			want = "1"
		}
		if got := metricValue(t, scrape(t, nd.url), "dlserve_jobs_completed_total"); got != want {
			t.Errorf("node %s completed %s jobs, want %s", nd.url, got, want)
		}
	}
}

// TestRouterReadThroughReplicates: a finished result is served by the
// Dispatcher's hedged read — from the owner, or from the successor when
// only the successor holds it — and a hash no node holds is an error.
func TestRouterReadThroughReplicates(t *testing.T) {
	nodes, d := startCluster(t, 3, echoRunner(0, nil), 50*time.Millisecond)
	ctx := context.Background()

	sp := specOwnedBy(t, d.Ring(), nodes[0].url, 1)
	hash, _ := sp.Hash()
	runOn(t, nodes[0].url, sp)
	body, node, hedged, err := d.ResultByHash(ctx, hash)
	if err != nil || string(body) != expected(t, sp) {
		t.Fatalf("owner read: body=%q err=%v, want %q", body, err, expected(t, sp))
	}
	if node != nodes[0].url || hedged {
		t.Fatalf("owner read: node=%q hedged=%v, want unhedged read from %q", node, hedged, nodes[0].url)
	}

	// Held only by the ring successor: the owner's 404 fires the hedge.
	sp2 := specOwnedBy(t, d.Ring(), nodes[0].url, sp.Seed+1)
	hash2, _ := sp2.Hash()
	succ := d.Ring().Successors(hash2, 2)[1]
	runOn(t, succ, sp2)
	body, node, hedged, err = d.ResultByHash(ctx, hash2)
	if err != nil || string(body) != expected(t, sp2) {
		t.Fatalf("successor read: body=%q err=%v, want %q", body, err, expected(t, sp2))
	}
	if node != succ || !hedged {
		t.Fatalf("successor read: node=%q hedged=%v, want hedge win from %q", node, hedged, succ)
	}

	if body, node, _, err := d.ResultByHash(ctx, strings.Repeat("ab", 32)); err == nil {
		t.Fatalf("unknown hash served %q by %s, want an error", body, node)
	}
}

// TestRouterDeadPeerRerouteAndRecovery: with the owner dead, Run
// requeues onto another node; once the owner is back, the next spec it
// owns runs there with no requeue — there is no health state to recover.
func TestRouterDeadPeerRerouteAndRecovery(t *testing.T) {
	nodes, d := startCluster(t, 3, echoRunner(0, nil), 20*time.Millisecond)
	ctx := context.Background()
	owner := nodes[1]
	sp := specOwnedBy(t, d.Ring(), owner.url, 1)

	owner.kill()
	out, err := d.Run(ctx, sp)
	if err != nil {
		t.Fatalf("run with dead owner: %v", err)
	}
	if out.Node == owner.url || out.Requeues < 1 {
		t.Fatalf("node=%q requeues=%d, want a requeue away from %q", out.Node, out.Requeues, owner.url)
	}
	if string(out.Body) != expected(t, sp) {
		t.Fatalf("requeued result = %q, want %q", out.Body, expected(t, sp))
	}

	owner.revive()
	sp2 := specOwnedBy(t, d.Ring(), owner.url, sp.Seed+1)
	out, err = d.Run(ctx, sp2)
	if err != nil {
		t.Fatalf("run after revival: %v", err)
	}
	if out.Node != owner.url || out.Requeues != 0 {
		t.Fatalf("after revival: node=%q requeues=%d, want %q with no requeue", out.Node, out.Requeues, owner.url)
	}
}

func TestDispatcherRequeuesWhenNodeDiesMidJob(t *testing.T) {
	started := make(chan string, 8)
	nodes, d := startCluster(t, 3, echoRunner(300*time.Millisecond, started), 50*time.Millisecond)
	owner := nodes[0]
	sp := specOwnedBy(t, d.Ring(), owner.url, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	type res struct {
		out *Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := d.Run(ctx, sp)
		ch <- res{out, err}
	}()

	select {
	case <-started: // the owner began executing the job
	case <-time.After(10 * time.Second):
		t.Fatal("job never started on the owner")
	}
	owner.kill()

	var r res
	select {
	case r = <-ch:
	case <-time.After(15 * time.Second):
		t.Fatal("dispatcher never returned after node death")
	}
	if r.err != nil {
		t.Fatalf("run with mid-job node death: %v", r.err)
	}
	if string(r.out.Body) != expected(t, sp) {
		t.Fatalf("requeued result = %q, want %q — requeue changed the answer", r.out.Body, expected(t, sp))
	}
	if r.out.Requeues < 1 {
		t.Fatalf("Requeues = %d, want >= 1 after killing the hosting node", r.out.Requeues)
	}
	if r.out.Node == owner.url {
		t.Fatalf("result credited to the killed node %q", r.out.Node)
	}
}

func TestDispatcherHedgedReadSurvivesDeadOwner(t *testing.T) {
	nodes, d := startCluster(t, 2, echoRunner(0, nil), 30*time.Millisecond)
	ctx := context.Background()

	owner := nodes[0]
	sp := specOwnedBy(t, d.Ring(), owner.url, 1)
	hash, _ := sp.Hash()

	// Both nodes hold the result (content addressing makes the copies
	// identical); then the owner dies and the survivor must serve the read.
	runOn(t, owner.url, sp)
	succ := d.Ring().Successors(hash, 2)[1]
	runOn(t, succ, sp)
	owner.kill()

	body, node, hedged, err := d.ResultByHash(ctx, hash)
	if err != nil {
		t.Fatalf("hedged read with dead owner: %v", err)
	}
	if !hedged || node != succ {
		t.Fatalf("hedged=%v node=%q, want hedge win from %q", hedged, node, succ)
	}
	if string(body) != expected(t, sp) {
		t.Fatalf("hedged body = %q, want %q", body, expected(t, sp))
	}
}

func TestDispatcherSingleNodeAndCachedFastPath(t *testing.T) {
	_, d := startCluster(t, 1, echoRunner(0, nil), 20*time.Millisecond)
	ctx := context.Background()

	sp := spec.Spec{Kind: spec.KindSim, Workload: "p2p", Seed: 7}
	first, err := d.Run(ctx, sp)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if first.Cached || first.Requeues != 0 {
		t.Fatalf("first run: cached=%v requeues=%d, want fresh", first.Cached, first.Requeues)
	}
	second, err := d.Run(ctx, sp)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !second.Cached {
		t.Fatal("second run must be satisfied by the content-addressed fast path")
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Fatalf("fast path changed bytes: %q vs %q", first.Body, second.Body)
	}
}

// TestClusterMetricsExposition: cluster nodes are plain dlserve, so each
// node's /metrics is the dlserve exposition alone — no dlcluster_ series.
func TestClusterMetricsExposition(t *testing.T) {
	nodes, d := startCluster(t, 2, echoRunner(0, nil), 50*time.Millisecond)
	sp := specOwnedBy(t, d.Ring(), nodes[1].url, 1)
	if _, err := d.Run(context.Background(), sp); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, nd := range nodes {
		mb := scrape(t, nd.url)
		metricValue(t, mb, "dlserve_jobs_submitted_total")
		for _, line := range strings.Split(mb, "\n") {
			if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
				line = strings.SplitN(line, " ", 3)[2]
			}
			if line != "" && !strings.HasPrefix(line, "dlserve_") {
				t.Fatalf("node %s exports a non-dlserve series %q", nd.url, line)
			}
		}
	}
}

// TestRouterRejectsForeignSelf: the Dispatcher refuses a membership it
// cannot place on — no nodes at all, or one node listed twice.
func TestRouterRejectsForeignSelf(t *testing.T) {
	for _, nodes := range [][]string{nil, {"http://n1", "http://n2", "http://n1"}} {
		if _, err := NewDispatcher(DispatcherConfig{Nodes: nodes}); err == nil {
			t.Errorf("NewDispatcher(%q) accepted a bad membership", nodes)
		}
	}
}

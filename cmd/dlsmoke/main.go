// dlsmoke is the end-to-end smoke for dlserve, run by ci.sh. It spawns
// real dlserve processes on ephemeral ports and proves the service
// contract:
//
//  1. an HTTP job's result body is byte-identical to the dlsim CLI's
//     stdout for the same spec;
//  2. resubmitting the spec is a cache hit with an identical body;
//  3. /healthz and /metrics respond;
//  4. SIGTERM drains gracefully — a running job finishes and its result
//     is retrievable through the drain window, new submissions are
//     rejected with 503, and the server exits 0.
//
// With -cluster N it instead stands up N plain dlserve processes, each
// with its own disk store, and drives them through the cluster
// dispatcher, which owns placement: the job runs on its ring owner with
// bytes identical to the CLI, and a second run is a content-addressed
// cache read with the same bytes. With -chaos it additionally SIGKILLs
// the node hosting a job mid-run and verifies the dispatcher requeues
// onto a peer and still returns bytes identical to the single-node CLI
// output — the determinism contract makes the kill invisible in the
// answer — and that the peer then serves those bytes by content address.
//
// Usage: dlsmoke -serve ./dlserve -sim ./dlsim [-cluster 3 [-chaos]]
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/cluster"
	"repro/internal/spec"
)

func main() {
	var (
		serveBin = flag.String("serve", "./dlserve", "path to the dlserve binary")
		simBin   = flag.String("sim", "./dlsim", "path to the dlsim binary")
		clusterN = flag.Int("cluster", 0, "run the cluster smoke with N nodes instead of the single-node smoke")
		chaos    = flag.Bool("chaos", false, "with -cluster: SIGKILL the node hosting a job mid-run and require a byte-identical answer from a peer")
		traceIn  = flag.String("tracein", "", "single-node smoke only: additionally upload this trace file and require the trace job's result to match dlsim -tracein byte for byte")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	if *clusterN > 0 {
		clusterSmoke(ctx, *serveBin, *simBin, *clusterN, *chaos)
	} else {
		singleSmoke(ctx, *serveBin, *simBin, *traceIn)
	}
	fmt.Println("dlsmoke: PASS")
}

// node is one spawned dlserve process.
type node struct {
	url string
	cmd *exec.Cmd
}

// startNode spawns a dlserve, waits for its listening line and keeps
// draining its stdout. extra appends process-specific flags.
func startNode(serveBin string, extra ...string) (*node, error) {
	args := append([]string{}, extra...)
	cmd := exec.Command(serveBin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", serveBin, err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("no listening line from dlserve (err %v)", sc.Err())
	}
	line := sc.Text()
	const prefix = "dlserve: listening on "
	if !strings.HasPrefix(line, prefix) {
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("unexpected first line %q", line)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return &node{url: strings.TrimPrefix(line, prefix), cmd: cmd}, nil
}

// --- cluster smoke ---

func clusterSmoke(ctx context.Context, serveBin, simBin string, n int, chaos bool) {
	storeRoot, err := os.MkdirTemp("", "dlsmoke-store-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(storeRoot)

	nodes := make([]*node, n)
	urls := make([]string, n)
	for i := range nodes {
		nodes[i], err = startNode(serveBin,
			"-addr", "127.0.0.1:0",
			"-workers", "1",
			"-store", fmt.Sprintf("%s/n%d", storeRoot, i),
		)
		if err != nil {
			fatal(err)
		}
		defer func(nd *node) { _ = nd.cmd.Process.Kill() }(nodes[i])
		urls[i] = nodes[i].url
	}
	fmt.Printf("dlsmoke: %d-node cluster up (%s)\n", n, strings.Join(urls, ", "))

	d, err := cluster.NewDispatcher(cluster.DispatcherConfig{
		Nodes:        urls,
		Client:       client.Options{Retries: 3, BackoffBase: 20 * time.Millisecond, RequestTimeout: 10 * time.Second},
		HedgeAfter:   200 * time.Millisecond,
		PollInterval: 25 * time.Millisecond,
	})
	if err != nil {
		fatal(fmt.Errorf("dispatcher: %w", err))
	}

	// --- 1. Cluster answer is byte-identical to the CLI. ---
	sp := spec.Spec{Kind: spec.KindSim, Workload: "p2p", DIMMs: 4, Channels: 2}
	cli, err := exec.Command(simBin, "-workload", "p2p", "-dimms", "4", "-channels", "2").Output()
	if err != nil {
		fatal(fmt.Errorf("dlsim: %w", err))
	}
	out, err := d.Run(ctx, sp)
	if err != nil {
		fatal(fmt.Errorf("cluster run: %w", err))
	}
	if !bytes.Equal(out.Body, cli) {
		fatal(fmt.Errorf("cluster result differs from dlsim stdout:\n--- cluster\n%s--- cli\n%s", out.Body, cli))
	}
	owner := d.Ring().Owner(out.Hash)
	if out.Node != owner {
		fatal(fmt.Errorf("job served by %s, ring owner is %s", out.Node, owner))
	}
	fmt.Printf("dlsmoke: cluster result byte-identical to dlsim stdout (owner %s)\n", owner)

	// --- 2. A second run is a content-addressed read, no new job. ---
	again, err := d.Run(ctx, sp)
	if err != nil {
		fatal(fmt.Errorf("cluster rerun: %w", err))
	}
	if !again.Cached {
		fatal(fmt.Errorf("second run was not served by content address (node %s)", again.Node))
	}
	if !bytes.Equal(again.Body, cli) {
		fatal(fmt.Errorf("cached cluster result differs from dlsim stdout"))
	}
	fmt.Printf("dlsmoke: second run served by content address from %s, identical bytes\n", again.Node)

	if chaos {
		chaosKill(ctx, simBin, d, nodes)
	}
}

// chaosKill submits a deliberately slow job, SIGKILLs the node running
// it mid-flight, and requires the dispatcher to requeue onto a peer and
// return bytes identical to the CLI — the cluster's whole fault-
// tolerance story in one assertion.
func chaosKill(ctx context.Context, simBin string, d *cluster.Dispatcher, nodes []*node) {
	// The scale keeps the job in flight around a second — long enough to
	// land the kill while it runs (see the single-node drain smoke).
	slow := spec.Spec{Kind: spec.KindSim, Workload: "bfs", Scale: 17}
	hash, err := d.Hash(slow)
	if err != nil {
		fatal(err)
	}
	victimURL := d.Ring().Owner(hash)
	var victim *node
	for _, nd := range nodes {
		if nd.url == victimURL {
			victim = nd
			break
		}
	}
	if victim == nil {
		fatal(fmt.Errorf("owner %s not among spawned nodes", victimURL))
	}

	type res struct {
		out *cluster.Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := d.Run(ctx, slow)
		ch <- res{out, err}
	}()

	// Kill the owner the moment it reports the job running.
	vc := client.New(victimURL)
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := vc.Health(ctx)
		if err == nil && h.Running > 0 {
			break
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("job never started on owner %s", victimURL))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		fatal(fmt.Errorf("SIGKILL owner: %w", err))
	}
	_ = victim.cmd.Wait()
	fmt.Printf("dlsmoke: SIGKILLed owner %s mid-job\n", victimURL)

	var r res
	select {
	case r = <-ch:
	case <-time.After(2 * time.Minute):
		fatal(fmt.Errorf("dispatcher never returned after node kill"))
	}
	if r.err != nil {
		fatal(fmt.Errorf("cluster run after kill: %w", r.err))
	}
	if r.out.Requeues < 1 {
		fatal(fmt.Errorf("job was not requeued (requeues=%d, served by %s)", r.out.Requeues, r.out.Node))
	}
	if r.out.Node == victimURL {
		fatal(fmt.Errorf("result credited to the killed node"))
	}
	cli, err := exec.Command(simBin, "-workload", "bfs", "-scale", "17").Output()
	if err != nil {
		fatal(fmt.Errorf("dlsim (bfs scale 17): %w", err))
	}
	if !bytes.Equal(r.out.Body, cli) {
		fatal(fmt.Errorf("post-kill result differs from single-node CLI output"))
	}
	fmt.Printf("dlsmoke: requeued on %s after kill, %d requeue(s), bytes identical to CLI\n", r.out.Node, r.out.Requeues)

	// The content address outlives the job: the node that ran the
	// requeued job serves the same bytes by hash.
	body, err := client.New(r.out.Node).ResultByHash(ctx, r.out.Hash)
	if err != nil {
		fatal(fmt.Errorf("result by hash on %s: %w", r.out.Node, err))
	}
	if !bytes.Equal(body, cli) {
		fatal(fmt.Errorf("result by hash on %s differs from CLI output", r.out.Node))
	}
	fmt.Printf("dlsmoke: %s serves the requeued result by content address\n", r.out.Node)
}

// --- single-node smoke (the original contract) ---

func singleSmoke(ctx context.Context, serveBin, simBin, traceIn string) {
	nd, err := startNode(serveBin, "-addr", "127.0.0.1:0", "-workers", "1")
	if err != nil {
		fatal(err)
	}
	cmd := nd.cmd
	defer func() { _ = cmd.Process.Kill() }()
	c := client.New(nd.url)

	// --- 1. HTTP result vs CLI stdout, byte for byte. ---
	sp := spec.Spec{Kind: spec.KindSim, Workload: "p2p", DIMMs: 4, Channels: 2}
	cli, err := exec.Command(simBin, "-workload", "p2p", "-dimms", "4", "-channels", "2").Output()
	if err != nil {
		fatal(fmt.Errorf("dlsim: %w", err))
	}
	st, err := c.Submit(ctx, sp)
	if err != nil {
		fatal(fmt.Errorf("submit: %w", err))
	}
	fin, err := c.Wait(ctx, st.ID, 0)
	if err != nil {
		fatal(fmt.Errorf("wait: %w", err))
	}
	if fin.State != serve.JobDone {
		fatal(fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error))
	}
	body, err := c.Result(ctx, st.ID, false)
	if err != nil {
		fatal(fmt.Errorf("result: %w", err))
	}
	if !bytes.Equal(body, cli) {
		fatal(fmt.Errorf("HTTP result differs from dlsim stdout:\n--- http\n%s--- cli\n%s", body, cli))
	}
	fmt.Println("dlsmoke: HTTP result byte-identical to dlsim stdout")

	// --- 2. Cache hit: identical body, no recompute. ---
	st2, err := c.Submit(ctx, sp)
	if err != nil {
		fatal(fmt.Errorf("resubmit: %w", err))
	}
	if !st2.Cached || st2.State != serve.JobDone {
		fatal(fmt.Errorf("resubmit not served from cache: %+v", st2))
	}
	body2, err := c.Result(ctx, st2.ID, false)
	if err != nil {
		fatal(fmt.Errorf("cached result: %w", err))
	}
	if !bytes.Equal(body2, cli) {
		fatal(fmt.Errorf("cached result body differs from fresh computation"))
	}
	fmt.Println("dlsmoke: cache hit returned identical bytes")

	// --- 3. Operational endpoints. ---
	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		fatal(fmt.Errorf("healthz: %+v, %v", h, err))
	}
	mb, err := c.Metrics(ctx)
	if err != nil || !bytes.Contains(mb, []byte("dlserve_jobs_completed_total")) {
		fatal(fmt.Errorf("metrics scrape missing job counters (err %v)", err))
	}
	fmt.Println("dlsmoke: /healthz and /metrics OK")

	// --- 3b. External-trace path (opt-in via -tracein). ---
	if traceIn != "" {
		traceSmoke(ctx, c, simBin, traceIn)
	}

	// --- 4. Graceful drain under SIGTERM. ---
	// Submit a slower job, let it start, then TERM the server while it
	// runs. The scale is chosen to keep the job in flight for most of a
	// second so the drain window stays observable — the probe loop below
	// needs the server alive-and-draining long enough to see a 503 (a
	// faster simulator shrinks this window; don't lower the scale).
	slow := spec.Spec{Kind: spec.KindSim, Workload: "bfs", Scale: 17}
	st3, err := c.Submit(ctx, slow)
	if err != nil {
		fatal(fmt.Errorf("slow submit: %w", err))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := c.Status(ctx, st3.ID)
		if err != nil {
			fatal(fmt.Errorf("slow status: %w", err))
		}
		if s.State == serve.JobRunning || s.State == serve.JobDone {
			break
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("slow job never started: %s", s.State))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatal(fmt.Errorf("SIGTERM: %w", err))
	}

	// While draining, new submissions must be rejected (503). The drain
	// flag flips asynchronously with the signal, so poll briefly — and
	// each probe uses a distinct seed: a probe that sneaks in before the
	// flag flips would otherwise turn every later identical probe into a
	// cache/dedup hit, which the server intentionally keeps serving
	// during drain (reads keep working).
	rejected := false
	for probe, n := time.Now(), 0; time.Since(probe) < 5*time.Second; n++ {
		_, err := c.Submit(ctx, spec.Spec{Kind: spec.KindSim, Workload: "sync", Seed: int64(1000 + n)})
		if code := client.StatusCode(err); code == http.StatusServiceUnavailable {
			rejected = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !rejected {
		fatal(fmt.Errorf("submissions were not rejected with 503 during drain"))
	}

	// The in-flight job's result must come back intact through the drain
	// window (?wait=1 blocks until it is terminal).
	slowBody, err := c.Result(ctx, st3.ID, true)
	if err != nil {
		fatal(fmt.Errorf("result during drain: %w", err))
	}
	slowCLI, err := exec.Command(simBin, "-workload", "bfs", "-scale", "17").Output()
	if err != nil {
		fatal(fmt.Errorf("dlsim (bfs scale 17): %w", err))
	}
	if !bytes.Equal(slowBody, slowCLI) {
		fatal(fmt.Errorf("drained job's result differs from dlsim stdout"))
	}

	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("dlserve exited non-zero after drain: %w", err))
	}
	fmt.Println("dlsmoke: SIGTERM drained gracefully (503 intake, result intact, exit 0)")
}

// traceSmoke proves the external-trace contract end to end: the same
// trace file replayed through dlsim -tracein and through the HTTP path
// (streaming upload, then a trace-kind job referencing the returned
// hash) must produce byte-identical reports.
func traceSmoke(ctx context.Context, c *client.Client, simBin, path string) {
	cli, err := exec.Command(simBin, "-tracein", path).Output()
	if err != nil {
		fatal(fmt.Errorf("dlsim -tracein: %w", err))
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	info, err := c.UploadTrace(ctx, f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("trace upload: %w", err))
	}
	st, err := c.Submit(ctx, spec.Spec{Kind: spec.KindTrace, Trace: info.Hash})
	if err != nil {
		fatal(fmt.Errorf("trace submit: %w", err))
	}
	fin, err := c.Wait(ctx, st.ID, 0)
	if err != nil {
		fatal(fmt.Errorf("trace wait: %w", err))
	}
	if fin.State != serve.JobDone {
		fatal(fmt.Errorf("trace job %s ended %s: %s", st.ID, fin.State, fin.Error))
	}
	body, err := c.Result(ctx, st.ID, false)
	if err != nil {
		fatal(fmt.Errorf("trace result: %w", err))
	}
	if !bytes.Equal(body, cli) {
		fatal(fmt.Errorf("trace job result differs from dlsim -tracein stdout:\n--- http\n%s--- cli\n%s", body, cli))
	}
	fmt.Printf("dlsmoke: uploaded trace %s… (%d records); trace job byte-identical to dlsim -tracein\n",
		info.Hash[:12], info.Records)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlsmoke:", err)
	os.Exit(1)
}

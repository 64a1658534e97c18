// dispatch.go — the cluster's only routing layer. Every node is a plain
// dlserve; a Dispatcher holds the consistent-hash ring, submits each
// spec to its owner, hedges content-addressed reads against the ring
// successor, and — when a node dies mid-run — requeues the job on the
// next node. Requeueing is just resubmission: the spec's content address
// names its result, so a job that ran twice (or half-ran on a dead node)
// converges on the same bytes wherever it lands.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/spec"
)

// DispatcherConfig configures a cluster client.
type DispatcherConfig struct {
	// Nodes is the ring membership: the base URLs of the dlserve nodes.
	Nodes []string
	// Client tunes the per-node robustness envelope.
	Client client.Options
	// HedgeAfter is how long a content-addressed read waits on the owner
	// before racing the ring successor (default 300ms).
	HedgeAfter time.Duration
	// PollInterval is the job-status poll cadence (default 50ms).
	PollInterval time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Dispatcher submits specs to a dlserve cluster and survives node death.
type Dispatcher struct {
	cfg     DispatcherConfig
	ring    *Ring
	clients map[string]*client.Client
}

// Outcome reports how a Run was satisfied — all fields other than Body
// and Hash describe execution policy, never the answer.
type Outcome struct {
	// Body is the rendered result text.
	Body []byte
	// Hash is the spec's content address.
	Hash string
	// Node served the final body.
	Node string
	// Requeues counts node switches after the first submission attempt.
	Requeues int
	// Hedged reports that a hedge (secondary) read supplied the body.
	Hedged bool
	// Cached reports the body came from a content-addressed read without
	// submitting any job.
	Cached bool
}

// NewDispatcher builds the dispatcher and its per-node clients.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	ring, err := NewRing(cfg.Nodes, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 300 * time.Millisecond
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	d := &Dispatcher{cfg: cfg, ring: ring, clients: make(map[string]*client.Client)}
	for _, n := range ring.Nodes() {
		d.clients[n] = client.NewWithOptions(n, cfg.Client)
	}
	return d, nil
}

// Ring returns the dispatcher's ring.
func (d *Dispatcher) Ring() *Ring { return d.ring }

func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Hash returns the spec's content address — the routing key.
func (d *Dispatcher) Hash(sp spec.Spec) (string, error) {
	n, err := sp.Normalized()
	if err != nil {
		return "", err
	}
	return n.Hash()
}

// ResultByHash performs a hedged content-addressed read: the owner is
// asked first, and if it has not answered within HedgeAfter the ring
// successor is raced against it. Each node answers from its own hot
// cache or disk store. Returns the body, the node credited with serving
// it, and whether the hedge won.
func (d *Dispatcher) ResultByHash(ctx context.Context, hash string) ([]byte, string, bool, error) {
	cands := d.ring.Successors(hash, 2)
	primary := func(c context.Context) ([]byte, error) {
		return d.clients[cands[0]].ResultByHash(c, hash)
	}
	secondary := primary
	snode := cands[0]
	if len(cands) > 1 {
		snode = cands[1]
		secondary = func(c context.Context) ([]byte, error) {
			return d.clients[cands[1]].ResultByHash(c, hash)
		}
	}
	body, hedged, err := client.Hedged(ctx, d.cfg.HedgeAfter, primary, secondary)
	if err != nil {
		return nil, "", false, err
	}
	node := cands[0]
	if hedged {
		node = snode
	}
	return body, node, hedged, nil
}

// Run executes a spec on the cluster and returns its result text. The
// walk: hedged content-addressed read first (the cluster may already
// hold the answer), then submit to the owner and each ring successor in
// turn, treating a node that dies mid-run as a requeue onto the next.
// Deterministic job failures (the spec itself errors) are returned
// immediately — rerunning a wrong spec elsewhere produces the same
// failure.
func (d *Dispatcher) Run(ctx context.Context, sp spec.Spec) (*Outcome, error) {
	hash, err := d.Hash(sp)
	if err != nil {
		return nil, err
	}
	if body, node, hedged, err := d.ResultByHash(ctx, hash); err == nil {
		return &Outcome{Body: body, Hash: hash, Node: node, Hedged: hedged, Cached: true}, nil
	}

	attempts := 0
	var lastErr error
	for _, node := range d.ring.Successors(hash, d.ring.Size()) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		attempts++
		if attempts > 1 {
			d.logf("cluster: requeue %s on %s (attempt %d): %v", hash[:12], node, attempts, lastErr)
		}
		c := d.clients[node]
		st, err := c.Submit(ctx, sp)
		if err != nil {
			if code := client.StatusCode(err); code != 0 {
				if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
					lastErr = err // shedding: let the next node absorb it
					continue
				}
				return nil, err // protocol rejection (bad spec, ...): final
			}
			lastErr = err
			continue
		}
		fin, err := c.Wait(ctx, st.ID, d.cfg.PollInterval)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = fmt.Errorf("node %s died mid-job: %w", node, err)
			continue // requeue: resubmission is idempotent by content address
		}
		switch fin.State {
		case serve.JobDone:
			body, err := c.Result(ctx, st.ID, true)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				lastErr = fmt.Errorf("node %s died before result read: %w", node, err)
				continue
			}
			return &Outcome{Body: body, Hash: hash, Node: node, Requeues: attempts - 1}, nil
		case serve.JobFailed:
			return nil, fmt.Errorf("cluster: job failed deterministically: %s", fin.Error)
		default: // canceled
			lastErr = fmt.Errorf("node %s reported job %s: %s", node, st.ID, fin.State)
			continue
		}
	}
	// Last salvage: a node may have finished (and spilled) the job before
	// whatever killed our poll — the content address outlives the job id.
	if body, node, hedged, rerr := d.ResultByHash(ctx, hash); rerr == nil {
		return &Outcome{Body: body, Hash: hash, Node: node, Requeues: attempts, Hedged: hedged}, nil
	}
	return nil, fmt.Errorf("cluster: all %d nodes failed for %s: %w", d.ring.Size(), hash[:12], lastErr)
}

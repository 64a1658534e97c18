// Package client is the hardened Go client for the dlserve HTTP API,
// used by cmd/dlsmoke, by the cluster dispatcher, and by any Go program
// that submits simulation jobs to a running dlserve.
//
// Every request is bounded: a per-attempt timeout (except deliberate
// long-polls, which are bounded by the caller's context), a bounded
// retry budget for transport-level failures with jittered exponential
// backoff, and a context threaded through every call. HTTP error
// statuses (4xx/5xx) are surfaced immediately and never retried here —
// they are protocol answers (429 backpressure, 503 drain, 410 canceled),
// and retry policy for them belongs to the caller.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/spec"
)

// Options tunes a Client's robustness envelope. Zero values select the
// documented defaults.
type Options struct {
	// RequestTimeout bounds each individual attempt of a non-waiting
	// request (default 15s; negative disables). Long-poll requests
	// (Result with wait) are exempt — they park on the server by design
	// and are bounded only by the call's context.
	RequestTimeout time.Duration
	// Retries is the total attempt budget per request for
	// transport-level failures (default 3; minimum 1). HTTP responses,
	// whatever their status, consume no retries.
	Retries int
	// BackoffBase is the delay before the first retry (default 50ms).
	// Each further retry doubles it, up to BackoffMax, and every delay
	// is jittered uniformly over [d/2, d) so synchronized clients desync.
	BackoffBase time.Duration
	// BackoffMax caps the backoff growth (default 2s).
	BackoffMax time.Duration
	// HTTPClient overrides the transport (nil = a fresh http.Client).
	HTTPClient *http.Client
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 15 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	return o
}

// Client talks to one dlserve instance.
type Client struct {
	base string
	opts Options

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	// sleep parks between attempts; tests substitute it to record the
	// backoff schedule without waiting it out.
	sleep func(ctx context.Context, d time.Duration) error
}

// New returns a client for the given base URL (e.g.
// "http://127.0.0.1:8077") with default Options. A trailing slash is
// tolerated.
func New(base string) *Client {
	return NewWithOptions(base, Options{})
}

// NewWithOptions returns a client with an explicit robustness envelope.
func NewWithOptions(base string, o Options) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		opts: o.withDefaults(),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
}

// backoff computes the jittered delay before retry number n (0-based).
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.BackoffBase
	for i := 0; i < n && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d/2) + 1))
	c.mu.Unlock()
	return d/2 + j // uniform over [d/2, d]
}

// apiError is a non-2xx response, carrying the status code for callers
// that branch on backpressure (429) or drain (503).
type apiError struct {
	Code int
	Body string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("dlserve: HTTP %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// StatusCode returns the HTTP status of an error returned by this
// package, or 0 if err did not come from a dlserve response.
func StatusCode(err error) int {
	if ae, ok := err.(*apiError); ok {
		return ae.Code
	}
	return 0
}

// roundTrip performs one logical request with the retry budget: each
// transport-level failure consumes an attempt and backs off before the
// next; any HTTP response — success or error status — returns
// immediately. bounded applies the per-attempt RequestTimeout; long
// polls pass false and rely on ctx alone.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, bounded bool) (int, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.opts.Retries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt-1)); err != nil {
				return 0, nil, err
			}
		}
		status, b, err := c.attempt(ctx, method, path, body, bounded)
		if err == nil {
			return status, b, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
	}
	return 0, nil, fmt.Errorf("dlserve: %s %s: retry budget (%d) exhausted: %w",
		method, path, c.opts.Retries, lastErr)
}

// attempt is one HTTP exchange, fully reading the response body so the
// per-attempt context can be released before returning.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, bounded bool) (int, []byte, error) {
	actx := ctx
	if bounded && c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	// ReadAll's buffer can be nearly twice the body; callers keep result
	// bodies, so hand them a copy without the growth slack.
	return resp.StatusCode, bytes.Clone(b), nil
}

// do runs a bounded JSON request and decodes a 2xx body into out.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	status, b, err := c.roundTrip(ctx, method, path, body, true)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return &apiError{Code: status, Body: string(b)}
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// Submit posts a job spec. The returned status may already be terminal
// (cache hit) or belong to an identical in-flight job (deduplicated).
// Submission is idempotent under the determinism contract — the spec's
// content address names its result — so a retried submit is always safe.
func (c *Client) Submit(ctx context.Context, sp spec.Spec) (serve.JobStatus, error) {
	b, err := json.Marshal(sp)
	if err != nil {
		return serve.JobStatus{}, err
	}
	var st serve.JobStatus
	err = c.do(ctx, http.MethodPost, "/v1/jobs", b, &st)
	return st, err
}

// Status fetches a job's current state.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (serve.JobStatus, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if terminal(st.State) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// terminal mirrors serve's JobState lifecycle for the wire type.
func terminal(s serve.JobState) bool {
	return s == serve.JobDone || s == serve.JobFailed || s == serve.JobCanceled
}

// Result fetches a finished job's rendered text body. With wait set, the
// server blocks the request until the job is terminal — robust against
// the server draining right after the job finishes — and the per-attempt
// timeout is suspended (the caller's ctx is the only bound).
func (c *Client) Result(ctx context.Context, id string, wait bool) ([]byte, error) {
	path := "/v1/jobs/" + id + "/result"
	if wait {
		path += "?wait=1"
	}
	status, b, err := c.roundTrip(ctx, http.MethodGet, path, nil, !wait)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &apiError{Code: status, Body: string(b)}
	}
	return b, nil
}

// ResultByHash fetches a result by its content address from the node's
// hot cache or disk store (404 when the node doesn't hold it). This is
// the location-independent read the cluster dispatcher hedges.
func (c *Client) ResultByHash(ctx context.Context, hash string) ([]byte, error) {
	status, b, err := c.roundTrip(ctx, http.MethodGet, "/v1/results/"+hash, nil, true)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &apiError{Code: status, Body: string(b)}
	}
	return b, nil
}

// UploadTrace streams a trace (either ingest encoding) to POST
// /v1/traces and returns the server's TraceInfo. The body is consumed
// exactly once — a streaming upload is not replayable, so this call
// spends no retries; callers that want retry semantics must re-open the
// source themselves. Uploads are idempotent by content: re-sending a
// stored trace succeeds with the same hash.
func (c *Client) UploadTrace(ctx context.Context, body io.Reader) (serve.TraceInfo, error) {
	var info serve.TraceInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/traces", body)
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return info, err
	}
	if resp.StatusCode/100 != 2 {
		return info, &apiError{Code: resp.StatusCode, Body: string(b)}
	}
	return info, json.Unmarshal(b, &info)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (serve.Health, error) {
	var h serve.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches the raw Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	status, b, err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil, true)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &apiError{Code: status, Body: string(b)}
	}
	return b, nil
}

// Hedged races primary against a delayed secondary request: if primary
// has not answered within after, secondary fires, and the first success
// wins (the loser's context is canceled). Under the determinism
// contract both answers carry identical bytes, so taking the first is
// safe — hedging trades a little duplicate work for tail latency, which
// is why it is reserved for reads. Returns the winning body and whether
// the hedge (secondary) supplied it.
func Hedged(ctx context.Context, after time.Duration, primary, secondary func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type answer struct {
		body   []byte
		hedged bool
		err    error
	}
	ch := make(chan answer, 2)
	launch := func(fn func(context.Context) ([]byte, error), hedged bool) {
		go func() {
			b, err := fn(hctx)
			ch <- answer{body: b, hedged: hedged, err: err}
		}()
	}
	launch(primary, false)

	timer := time.NewTimer(after)
	defer timer.Stop()
	outstanding, hedgeLaunched := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedgeLaunched {
				launch(secondary, true)
				hedgeLaunched = true
				outstanding++
			}
		case a := <-ch:
			outstanding--
			if a.err == nil {
				return a.body, a.hedged, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if !hedgeLaunched {
				// Primary failed outright before the hedge timer: fire the
				// secondary immediately rather than waiting out the delay.
				launch(secondary, true)
				hedgeLaunched = true
				outstanding++
			}
			if outstanding == 0 {
				return nil, false, firstErr
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

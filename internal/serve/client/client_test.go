package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// flakyPeer is an httptest handler that kills the first failN
// connections at the transport level (no HTTP response — the client
// sees a broken connection, exactly what a died/dying node produces),
// then serves body. It is the fake behind the retry/backoff tests.
type flakyPeer struct {
	mu    sync.Mutex
	calls int
	failN int
	body  string
	code  int
}

func (f *flakyPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.failN
	f.mu.Unlock()
	if fail {
		panic(http.ErrAbortHandler) // net/http closes the connection
	}
	code := f.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	fmt.Fprint(w, f.body)
}

func (f *flakyPeer) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// fastClient returns a client with microscopic backoff for test speed,
// recording every backoff sleep.
func fastClient(base string, retries int) (*Client, *[]time.Duration) {
	c := NewWithOptions(base, Options{
		Retries:     retries,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})
	var slept []time.Duration
	real := c.sleep
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return real(ctx, d)
	}
	return c, &slept
}

// TestRetryRecoversFromFlakyPeer: two dead connections, then success —
// a 3-attempt budget lands the request, backing off before each retry.
func TestRetryRecoversFromFlakyPeer(t *testing.T) {
	peer := &flakyPeer{failN: 2, body: "result bytes\n"}
	ts := httptest.NewServer(peer)
	defer ts.Close()

	c, slept := fastClient(ts.URL, 3)
	body, err := c.ResultByHash(context.Background(), strings.Repeat("a", 64))
	if err != nil {
		t.Fatalf("ResultByHash: %v", err)
	}
	if string(body) != "result bytes\n" {
		t.Errorf("body = %q", body)
	}
	if peer.count() != 3 {
		t.Errorf("attempts = %d, want 3", peer.count())
	}
	if len(*slept) != 2 {
		t.Errorf("backoff sleeps = %d, want 2", len(*slept))
	}
}

// TestRetryBudgetExhausted: a peer that stays dead consumes the whole
// budget and reports it.
func TestRetryBudgetExhausted(t *testing.T) {
	peer := &flakyPeer{failN: 1 << 30}
	ts := httptest.NewServer(peer)
	defer ts.Close()

	c, _ := fastClient(ts.URL, 2)
	_, err := c.Status(context.Background(), "j1")
	if err == nil || !strings.Contains(err.Error(), "retry budget (2) exhausted") {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if peer.count() != 2 {
		t.Errorf("attempts = %d, want 2", peer.count())
	}
}

// TestHTTPStatusesAreNotRetried: protocol answers (429, 503, 404) must
// surface immediately — retrying them would defeat backpressure and
// drain semantics.
func TestHTTPStatusesAreNotRetried(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusNotFound} {
		peer := &flakyPeer{body: "nope", code: code}
		ts := httptest.NewServer(peer)
		c, _ := fastClient(ts.URL, 5)
		_, err := c.Status(context.Background(), "j1")
		if StatusCode(err) != code {
			t.Errorf("code %d: StatusCode = %d (%v)", code, StatusCode(err), err)
		}
		if peer.count() != 1 {
			t.Errorf("code %d: attempts = %d, want 1 (no retry)", code, peer.count())
		}
		ts.Close()
	}
}

// TestBackoffScheduleExponentialJittered pins the backoff policy: delay
// k lies in [min(base*2^k, max)/2, min(base*2^k, max)], i.e. doubling
// growth, a hard ceiling, and jitter that never collapses to zero.
func TestBackoffScheduleExponentialJittered(t *testing.T) {
	c := NewWithOptions("http://unused", Options{
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  400 * time.Millisecond,
	})
	for n, wantFull := range []time.Duration{
		100 * time.Millisecond, // n=0: base
		200 * time.Millisecond, // n=1: doubled
		400 * time.Millisecond, // n=2: at the cap
		400 * time.Millisecond, // n=3: capped
	} {
		for trial := 0; trial < 50; trial++ {
			d := c.backoff(n)
			if d < wantFull/2 || d > wantFull {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", n, d, wantFull/2, wantFull)
			}
		}
	}
}

// TestRequestTimeoutBoundsHungServer: a server that never answers must
// not hang the caller — the per-attempt timeout fires, and the bounded
// retry budget walks the call to an error in bounded time.
func TestRequestTimeoutBoundsHungServer(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-hung:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()

	c := NewWithOptions(ts.URL, Options{
		RequestTimeout: 30 * time.Millisecond,
		Retries:        2,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
	})
	start := time.Now()
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("hung server produced no error")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("hung call took %v — timeout not applied", el)
	}
}

// TestWaitExemptFromRequestTimeout: a long-poll (wait=1) parks longer
// than the per-attempt timeout and must still succeed — only the
// caller's context bounds it.
func TestWaitExemptFromRequestTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") != "1" {
			t.Errorf("expected wait=1 on %s", r.URL)
		}
		time.Sleep(120 * time.Millisecond) // longer than RequestTimeout
		fmt.Fprint(w, "late body")
	}))
	defer ts.Close()

	c := NewWithOptions(ts.URL, Options{RequestTimeout: 20 * time.Millisecond, Retries: 1})
	body, err := c.Result(context.Background(), "j1", true)
	if err != nil {
		t.Fatalf("long-poll killed by per-attempt timeout: %v", err)
	}
	if string(body) != "late body" {
		t.Errorf("body = %q", body)
	}
}

// TestContextCancelStopsRetries: ctx death mid-backoff aborts the loop
// with the context error, not a budget error.
func TestContextCancelStopsRetries(t *testing.T) {
	peer := &flakyPeer{failN: 1 << 30}
	ts := httptest.NewServer(peer)
	defer ts.Close()

	c := NewWithOptions(ts.URL, Options{
		Retries:     10,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := c.Status(ctx, "j1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if peer.count() >= 10 {
		t.Errorf("attempts = %d — retries did not stop on ctx death", peer.count())
	}
}

// TestHedgedSecondaryWins: a slow primary is beaten by the hedge fired
// after the latency threshold.
func TestHedgedSecondaryWins(t *testing.T) {
	primary := func(ctx context.Context) ([]byte, error) {
		select {
		case <-time.After(2 * time.Second):
			return []byte("slow"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	secondary := func(ctx context.Context) ([]byte, error) {
		return []byte("identical bytes"), nil
	}
	start := time.Now()
	body, hedged, err := Hedged(context.Background(), 20*time.Millisecond, primary, secondary)
	if err != nil || !hedged || string(body) != "identical bytes" {
		t.Fatalf("hedged read: body=%q hedged=%v err=%v", body, hedged, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("hedged read took %v — did not cut the tail", el)
	}
}

// TestHedgedPrimaryWins: a fast primary means the hedge never fires.
func TestHedgedPrimaryWins(t *testing.T) {
	var hedgeFired atomic.Bool
	primary := func(ctx context.Context) ([]byte, error) { return []byte("fast"), nil }
	secondary := func(ctx context.Context) ([]byte, error) {
		hedgeFired.Store(true)
		return []byte("fast"), nil
	}
	body, hedged, err := Hedged(context.Background(), 200*time.Millisecond, primary, secondary)
	if err != nil || hedged || string(body) != "fast" {
		t.Fatalf("body=%q hedged=%v err=%v", body, hedged, err)
	}
	if hedgeFired.Load() {
		t.Error("hedge fired although primary answered inside the threshold")
	}
}

// TestHedgedPrimaryFailsFast: an immediately-dead primary triggers the
// hedge without waiting out the threshold.
func TestHedgedPrimaryFailsFast(t *testing.T) {
	primary := func(ctx context.Context) ([]byte, error) { return nil, errors.New("conn refused") }
	secondary := func(ctx context.Context) ([]byte, error) { return []byte("peer"), nil }
	start := time.Now()
	body, hedged, err := Hedged(context.Background(), 5*time.Second, primary, secondary)
	if err != nil || !hedged || string(body) != "peer" {
		t.Fatalf("body=%q hedged=%v err=%v", body, hedged, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("failover took %v — waited out the hedge delay", el)
	}
}

// TestHedgedBothFail: both legs failing surfaces the primary's error.
func TestHedgedBothFail(t *testing.T) {
	e1, e2 := errors.New("primary down"), errors.New("secondary down")
	primary := func(ctx context.Context) ([]byte, error) { return nil, e1 }
	secondary := func(ctx context.Context) ([]byte, error) { return nil, e2 }
	_, _, err := Hedged(context.Background(), time.Millisecond, primary, secondary)
	if !errors.Is(err, e1) {
		t.Fatalf("err = %v, want the first failure", err)
	}
}

// TestHedgedLoserCanceled: the losing leg's context is canceled once a
// winner returns, so hedges never leak work.
func TestHedgedLoserCanceled(t *testing.T) {
	loserDone := make(chan error, 1)
	primary := func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		loserDone <- ctx.Err()
		return nil, ctx.Err()
	}
	secondary := func(ctx context.Context) ([]byte, error) { return []byte("win"), nil }
	if _, _, err := Hedged(context.Background(), time.Millisecond, primary, secondary); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-loserDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("loser saw %v, want cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("losing leg never canceled")
	}
}

// TestSubmitRoundTrip exercises the JSON path against a real-shaped
// response body.
func TestSubmitRoundTrip(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		if !bytes.Contains(buf.Bytes(), []byte(`"p2p"`)) {
			t.Errorf("spec body = %s", buf.String())
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j1","hash":"`+strings.Repeat("c", 64)+`","state":"queued"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	st, err := c.Submit(context.Background(), simSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" || string(st.State) != "queued" {
		t.Errorf("status = %+v", st)
	}
}

func simSpec() spec.Spec { return spec.Spec{Kind: spec.KindSim, Workload: "p2p"} }

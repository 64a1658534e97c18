package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ingest"
	"repro/internal/serve/store"
	"repro/internal/spec"
	"repro/internal/trace"
)

// testTrace builds a small but non-trivial trace in the requested
// encoding. Raw addresses are deliberately wide — the default page
// mapping must fold them onto the simulated DIMMs.
func testTrace(t *testing.T, format ingest.Format) []byte {
	t.Helper()
	tr := &trace.Trace{Threads: 4}
	rng := uint64(0x1234_5678_9abc_def0)
	for i := 0; i < 200; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		tr.Records = append(tr.Records, trace.Record{
			Thread: i % 4, Addr: rng % (1 << 40), Size: uint32(64 + (rng>>33)%192),
			Write: rng&1 == 1, Gap: (rng >> 40) & 255,
		})
	}
	var buf bytes.Buffer
	if err := ingest.WriteTrace(&buf, tr, format); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func tracesServer(t *testing.T) (*Server, *httptest.Server, *store.Blobs) {
	t.Helper()
	blobs, err := store.OpenBlobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Workers: 1, Traces: blobs})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, blobs
}

func uploadTrace(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, TraceInfo) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info TraceInfo
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return resp, info
}

// TestTraceUploadAndRun is the HTTP half of the external-trace contract:
// upload → trace-kind job → result bytes identical to a direct
// ReplayTrace of the same bytes, and both encodings of the trace land on
// one blob and one cached result.
func TestTraceUploadAndRun(t *testing.T) {
	_, ts, blobs := tracesServer(t)
	text := testTrace(t, ingest.FormatText)
	bin := testTrace(t, ingest.FormatBinary)

	resp, info := uploadTrace(t, ts, text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: HTTP %d", resp.StatusCode)
	}
	if info.Records != 200 || info.Threads != 4 || len(info.Hash) != 64 {
		t.Fatalf("upload info: %+v", info)
	}
	if !blobs.Has(info.Hash) {
		t.Fatal("uploaded blob not in store")
	}

	// The binary serialization of the same logical trace is the same
	// content address — the second upload is an idempotent no-op.
	resp2, info2 := uploadTrace(t, ts, bin)
	if resp2.StatusCode != http.StatusOK || info2.Hash != info.Hash {
		t.Fatalf("binary upload: HTTP %d hash %s (want %s)", resp2.StatusCode, info2.Hash, info.Hash)
	}
	if blobs.Len() != 1 {
		t.Fatalf("store holds %d blobs, want 1", blobs.Len())
	}

	sp := spec.Spec{Kind: spec.KindTrace, Trace: info.Hash, DIMMs: 4, Channels: 2}
	resp3, st := postSpec(t, ts, sp)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("trace submit: HTTP %d", resp3.StatusCode)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("trace job ended %s: %s", fin.State, fin.Error)
	}
	rresp, body := getResult(t, ts, st.ID, "")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", rresp.StatusCode)
	}

	// Ground truth: replay the same bytes directly.
	td, err := ingest.ReadAll(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sp.ReplayTrace(td, spec.SimHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	run.Report(&want)
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("HTTP trace result differs from direct replay:\n--- http\n%s--- direct\n%s", body, want.Bytes())
	}

	// Resubmit: served from cache.
	_, st2 := postSpec(t, ts, sp)
	if !st2.Cached {
		t.Errorf("resubmitted trace job not cached: %+v", st2)
	}
}

// TestTraceUploadMalformed: a corrupt body is rejected with the parse
// position and leaves nothing in the store.
func TestTraceUploadMalformed(t *testing.T) {
	_, ts, blobs := tracesServer(t)
	cases := map[string][]byte{
		"bad magic":      []byte("not a trace\n"),
		"bad record":     []byte("#dltrace v1\n#threads 2\n0 R zz 64 0\n"),
		"truncated":      testTrace(t, ingest.FormatBinary)[:20],
		"empty":          {},
		"header no recs": []byte("#dltrace v1\n#threads 2\n"),
	}
	for name, body := range cases {
		resp, _ := uploadTrace(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	if blobs.Len() != 0 {
		t.Errorf("rejected uploads left %d blobs", blobs.Len())
	}
}

// TestTraceSubmitGates: trace-kind submissions are rejected up front
// when the referenced blob is missing, and when the server has no trace
// store at all.
func TestTraceSubmitGates(t *testing.T) {
	_, ts, _ := tracesServer(t)
	unknown := spec.Spec{Kind: spec.KindTrace,
		Trace: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}
	resp, _ := postSpec(t, ts, unknown)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown trace: HTTP %d, want 400", resp.StatusCode)
	}

	bare := NewServer(Config{Workers: 1})
	defer bare.Close()
	bts := httptest.NewServer(bare)
	defer bts.Close()
	resp2, _ := postSpec(t, bts, unknown)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("no trace store: HTTP %d, want 400", resp2.StatusCode)
	}
	uresp, err := http.Post(bts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader(testTrace(t, ingest.FormatText)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, uresp.Body)
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotImplemented {
		t.Errorf("upload without store: HTTP %d, want 501", uresp.StatusCode)
	}
}

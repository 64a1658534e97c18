package ingest

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/trace"
)

// randomTrace builds a deterministic pseudo-random trace.
func randomTrace(seed int64, threads, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &trace.Trace{Threads: threads}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, trace.Record{
			Thread: rng.Intn(threads),
			Addr:   rng.Uint64() >> uint(rng.Intn(32)),
			Size:   uint32(1 + rng.Intn(1<<12)),
			Write:  rng.Intn(2) == 1,
			Gap:    uint64(rng.Intn(1 << 16)),
		})
	}
	return t
}

func encode(t *testing.T, tr *trace.Trace, f Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, f); err != nil {
		t.Fatalf("WriteTrace(%s): %v", f, err)
	}
	return buf.Bytes()
}

// TestRoundTrip is the property test: text -> parse -> binary -> parse
// recovers the original records, re-encodings are byte-identical, and
// the canonical hash is encoding-independent.
func TestRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		orig := randomTrace(seed, 1+int(seed)%9, 500)

		text := encode(t, orig, FormatText)
		bin := encode(t, orig, FormatBinary)

		dText, err := ReadAll(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("seed %d: parse text: %v", seed, err)
		}
		dBin, err := ReadAll(bytes.NewReader(bin))
		if err != nil {
			t.Fatalf("seed %d: parse binary: %v", seed, err)
		}
		if dText.Format != FormatText || dBin.Format != FormatBinary {
			t.Fatalf("seed %d: format sniffing got %s/%s", seed, dText.Format, dBin.Format)
		}
		if dText.Threads != orig.Threads || dBin.Threads != orig.Threads {
			t.Fatalf("seed %d: threads %d/%d want %d", seed, dText.Threads, dBin.Threads, orig.Threads)
		}
		for i := range orig.Records {
			if dText.Records[i] != orig.Records[i] {
				t.Fatalf("seed %d: text record %d = %+v want %+v", seed, i, dText.Records[i], orig.Records[i])
			}
			if dBin.Records[i] != orig.Records[i] {
				t.Fatalf("seed %d: binary record %d = %+v want %+v", seed, i, dBin.Records[i], orig.Records[i])
			}
		}
		if dText.Hash != dBin.Hash {
			t.Fatalf("seed %d: canonical hash differs across encodings: %s vs %s", seed, dText.Hash, dBin.Hash)
		}

		// Re-encoding the parsed trace must reproduce the bytes exactly.
		re := encode(t, &trace.Trace{Threads: dText.Threads, Records: dText.Records}, FormatText)
		if !bytes.Equal(re, text) {
			t.Fatalf("seed %d: text re-encode not byte-identical", seed)
		}
		re = encode(t, &trace.Trace{Threads: dBin.Threads, Records: dBin.Records}, FormatBinary)
		if !bytes.Equal(re, bin) {
			t.Fatalf("seed %d: binary re-encode not byte-identical", seed)
		}
	}
}

// TestTextComments checks that comments and blank lines are skipped and
// line accounting stays correct in errors after them.
func TestTextComments(t *testing.T) {
	in := "#dltrace v1\n#threads 2\n\n# a comment\n0 R ff 4 0\n\n1 W 1000 64 9\n"
	d, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(d.Records) != 2 || d.Records[1].Addr != 0x1000 || !d.Records[1].Write {
		t.Fatalf("got %+v", d.Records)
	}
}

// TestTextErrors pins that malformed text reports the offending line
// number and never panics.
func TestTextErrors(t *testing.T) {
	cases := []struct {
		name, in string
		wantLine int
		wantSub  string
	}{
		{"empty", "", 0, "empty input"},
		{"bad magic", "#threads 2\n", 1, "bad header"},
		{"no threads", "#dltrace v1\n", 2, "missing '#threads N'"},
		{"zero threads", "#dltrace v1\n#threads 0\n", 2, "bad thread count"},
		{"huge threads", "#dltrace v1\n#threads 99999999\n", 2, "bad thread count"},
		{"short line", "#dltrace v1\n#threads 2\n0 R ff\n", 3, "want 5 fields"},
		{"bad op", "#dltrace v1\n#threads 2\n0 X ff 4 0\n", 3, "bad op"},
		{"bad addr", "#dltrace v1\n#threads 2\n0 R zz 4 0\n", 3, "bad addr"},
		{"bad thread", "#dltrace v1\n#threads 2\n7 R ff 4 0\n", 3, "thread 7 out of range"},
		{"zero size", "#dltrace v1\n#threads 2\n0 R ff 0 0\n", 3, "zero-size"},
		{"late error", "#dltrace v1\n#threads 2\n0 R ff 4 0\n# c\n1 W 10 4\n", 5, "want 5 fields"},
		{"huge size", "#dltrace v1\n#threads 2\n0 R ff 999999999999 0\n", 3, "bad size"},
	}
	for _, tc := range cases {
		_, err := ReadAll(strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %v is not a ParseError", tc.name, err)
		}
		if tc.wantLine > 0 && pe.Line != tc.wantLine {
			t.Fatalf("%s: line %d want %d (%v)", tc.name, pe.Line, tc.wantLine, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q missing %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestBinaryTruncation pins that every proper prefix of a binary trace
// either parses cleanly (frame boundary) or reports truncation — never
// panics, never mistakes a cut frame for a clean end.
func TestBinaryTruncation(t *testing.T) {
	orig := randomTrace(3, 4, 50)
	bin := encode(t, orig, FormatBinary)
	boundaries := 0
	for cut := 0; cut < len(bin); cut++ {
		d, err := ReadAll(bytes.NewReader(bin[:cut]))
		if err == nil {
			boundaries++
			if len(d.Records) >= len(orig.Records) {
				t.Fatalf("cut %d: clean parse of a truncated trace returned all records", cut)
			}
		}
	}
	// Clean parses happen exactly at frame boundaries (one per record,
	// including the boundary right after the header).
	if boundaries != len(orig.Records) {
		t.Fatalf("%d clean prefix parses, want %d (one per frame boundary)", boundaries, len(orig.Records))
	}
}

// TestBinaryHeaderErrors covers corrupt binary headers.
func TestBinaryHeaderErrors(t *testing.T) {
	good := encode(t, randomTrace(1, 2, 1), FormatBinary)
	for _, tc := range []struct {
		name string
		mut  func([]byte)
		sub  string
	}{
		{"version", func(b []byte) { b[4] = 9 }, "unsupported version"},
		{"flags", func(b []byte) { b[6] = 1 }, "unsupported flags"},
		{"threads-zero", func(b []byte) { b[8], b[9], b[10], b[11] = 0, 0, 0, 0 }, "bad thread count"},
		{"threads-huge", func(b []byte) { b[11] = 0xff }, "bad thread count"},
	} {
		b := bytes.Clone(good)
		tc.mut(b)
		if _, err := ReadAll(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), tc.sub) {
			t.Fatalf("%s: err %v missing %q", tc.name, err, tc.sub)
		}
	}
	// A short header is truncation, not a text-format fallback.
	if _, err := ReadAll(bytes.NewReader(good[:7])); err == nil || !strings.Contains(err.Error(), "truncated header") {
		t.Fatalf("short header: err %v", err)
	}
}

// TestDrainMatchesReadAll checks the bounded-memory validation pass
// agrees with the materializing one.
func TestDrainMatchesReadAll(t *testing.T) {
	orig := randomTrace(5, 6, 200)
	bin := encode(t, orig, FormatBinary)
	d, err := ReadAll(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	n, threads, h, err := Drain(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(d.Records)) || threads != d.Threads || h != d.Hash {
		t.Fatalf("Drain = (%d, %d, %s), ReadAll = (%d, %d, %s)", n, threads, h, len(d.Records), d.Threads, d.Hash)
	}
}

// TestReaderStreams verifies the parser consumes input incrementally:
// an io.Pipe source never buffers the whole trace, so a parse that
// slurped would deadlock.
func TestReaderStreams(t *testing.T) {
	orig := randomTrace(9, 3, 5000)
	pr, pw := io.Pipe()
	go func() {
		WriteTrace(pw, orig, FormatBinary)
		pw.Close()
	}()
	d, err := ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != len(orig.Records) {
		t.Fatalf("got %d records want %d", len(d.Records), len(orig.Records))
	}
}

func testGeo() mem.Geometry {
	return mem.Geometry{
		NumDIMMs: 4, NumChannels: 2, DIMMCapBytes: 1 << 20,
		RanksPerDIMM: 1, BanksPerRank: 4, RowBytes: 1 << 10, LineBytes: 64,
	}
}

func TestDirectMapper(t *testing.T) {
	m, err := NewMapper(MapDirect, 0, testGeo())
	if err != nil {
		t.Fatal(err)
	}
	if a, err := m.Map(0, 0x1234, 64); err != nil || a != 0x1234 {
		t.Fatalf("Map = %#x, %v", a, err)
	}
	if _, err := m.Map(0, testGeo().TotalBytes()-32, 64); err == nil {
		t.Fatal("out-of-capacity address not rejected")
	}
}

func TestPageMapper(t *testing.T) {
	geo := testGeo()
	const page = 4096
	m, err := NewMapper(MapPage, page, geo)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive pages round-robin across DIMMs; intra-page offsets and
	// DIMM containment are preserved.
	for i := uint64(0); i < 64; i++ {
		addr := i*page + 17
		got, err := m.Map(0, addr, 64)
		if err != nil {
			t.Fatal(err)
		}
		if d := geo.DIMMOf(got); d != int(i)%geo.NumDIMMs {
			t.Fatalf("page %d on DIMM %d want %d", i, d, int(i)%geo.NumDIMMs)
		}
		if got%page != 17 {
			t.Fatalf("page %d intra-page offset %d want 17", i, got%page)
		}
		if geo.DIMMOf(got) != geo.DIMMOf(got+63) {
			t.Fatalf("access at %#x crosses a DIMM boundary", got)
		}
	}
	// Determinism: same input, same output.
	a1, _ := m.Map(0, 999999, 8)
	a2, _ := m.Map(3, 999999, 8)
	if a1 != a2 {
		t.Fatalf("page mapping depends on home DIMM: %#x vs %#x", a1, a2)
	}
	// A page-spanning access stays within one DIMM (slide-back clamp).
	big, err := m.Map(0, page-8, 4*page)
	if err != nil {
		t.Fatal(err)
	}
	if geo.DIMMOf(big) != geo.DIMMOf(big+4*page-1) {
		t.Fatalf("large access crosses DIMMs")
	}
	// Larger than a DIMM is an error, not a wrap.
	if _, err := m.Map(0, 0, uint32(geo.DIMMCapBytes)+64); err == nil {
		t.Fatal("over-capacity access not rejected")
	}
}

func TestFirstTouchMapper(t *testing.T) {
	geo := testGeo()
	m, err := NewMapper(MapFirstTouch, 4096, geo)
	if err != nil {
		t.Fatal(err)
	}
	// First touch pins the page to the toucher's home DIMM...
	a, err := m.Map(2, 0x5000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d := geo.DIMMOf(a); d != 2 {
		t.Fatalf("first touch landed on DIMM %d want 2", d)
	}
	// ...and later touches from other DIMMs reuse the assignment.
	b, err := m.Map(0, 0x5040, 64)
	if err != nil {
		t.Fatal(err)
	}
	if geo.DIMMOf(b) != 2 || b != a+0x40 {
		t.Fatalf("second touch moved: %#x vs first %#x", b, a)
	}
	// Distinct pages from the same home get distinct frames.
	c, err := m.Map(2, 0x9000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || geo.DIMMOf(c) != 2 {
		t.Fatalf("second page frame %#x collides or strayed (first %#x)", c, a)
	}
	if _, err := m.Map(99, 0x1000, 64); err == nil {
		t.Fatal("out-of-range home DIMM not rejected")
	}
}

func TestNewMapperValidation(t *testing.T) {
	if _, err := NewMapper("nope", 4096, testGeo()); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := NewMapper(MapPage, 1000, testGeo()); err == nil {
		t.Fatal("non-power-of-two page accepted")
	}
	if _, err := NewMapper(MapPage, 1<<21, testGeo()); err == nil {
		t.Fatal("page larger than DIMM accepted")
	}
}

// TestWriterValidation pins that the writer refuses records the reader
// would reject, so tracegen can never emit an unparseable trace.
func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, FormatText, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&trace.Record{Thread: 5, Size: 4}); err == nil {
		t.Fatal("out-of-range thread accepted")
	}
	if _, err := NewWriter(&buf, FormatBinary, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := NewWriter(&buf, "xml", 1); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestDrainAllocBudget holds Drain, the upload endpoint's validation
// pass, to at most 0.05 heap allocations per record in both encodings:
// the Reader's O(1)-state contract, which a per-record allocation would
// break. Measured with go1.24.0 linux/amd64: 0.0001 in both, the
// Reader's fixed setup spread over 100,000 records. The test is serial
// and skipped under -short, where the race detector adds allocations of
// its own.
func TestDrainAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without -short and -race")
	}
	const budget = 0.05
	tr := randomTrace(5, 64, 100_000)
	for _, format := range []Format{FormatText, FormatBinary} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr, format); err != nil {
			t.Fatal(err)
		}
		var records uint64
		allocs := testing.AllocsPerRun(1, func() {
			n, _, _, err := Drain(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			records = n
		})
		got := allocs / float64(records)
		t.Logf("%s: %.4f allocs/record over %d records (budget %.2f)", format, got, records, budget)
		if got > budget {
			t.Errorf("%s: %.4f allocs/record exceeds the budget %.2f", format, got, budget)
		}
	}
}

// readByNext is the reference for ReadAll: record-by-record Next.
func readByNext(t *testing.T, b []byte) (*Data, error) {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	d := &Data{Threads: rd.Threads(), Format: rd.Format()}
	for {
		var rec trace.Record
		if err := rd.Next(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		d.Records = append(d.Records, rec)
	}
	d.Hash = rd.Sum()
	return d, nil
}

// TestReadAllChunkBoundaries checks ReadAll against record-by-record Next
// at and around its decode-chunk boundaries, in both encodings: the same
// records, threads, format and hash, an exact-length result, and the
// same error for a bad record just past a full chunk.
func TestReadAllChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 2*readChunk + 1} {
		tr := randomTrace(int64(n), 4, n)
		for _, f := range []Format{FormatText, FormatBinary} {
			b := encode(t, tr, f)
			got, err := ReadAll(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%d records, %s: %v", n, f, err)
			}
			want, err := readByNext(t, b)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Records, want.Records) || got.Threads != want.Threads ||
				got.Format != want.Format || got.Hash != want.Hash {
				t.Fatalf("%d records, %s: ReadAll (%d records, %d threads, %s, %s) differs from Next (%d, %d, %s, %s)",
					n, f, len(got.Records), got.Threads, got.Format, got.Hash,
					len(want.Records), want.Threads, want.Format, want.Hash)
			}
			if cap(got.Records) != n {
				t.Fatalf("%d records, %s: result capacity %d", n, f, cap(got.Records))
			}
		}
	}
	bad := append(encode(t, randomTrace(3, 4, readChunk), FormatText), "9 R 40 64 0\n"...)
	_, got := ReadAll(bytes.NewReader(bad))
	_, want := readByNext(t, bad)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("bad record after a full chunk: ReadAll error %v, Next error %v", got, want)
	}
}

// TestReadAllAllocBudget holds ReadAll of N records to at most 2.2 x N
// record sizes of heap: the decode chunks plus one exact-length copy,
// with at most one chunk of slack. Measured with go1.24.0 linux/amd64
// at N = 250,000: 2.06. The test is serial and skipped under -short,
// where the race detector allocates on its own.
func TestReadAllAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without -short and -race")
	}
	const n = 250_000
	b := encode(t, randomTrace(11, 8, n), FormatBinary)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := ReadAll(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err != nil || len(d.Records) != n {
		t.Fatalf("ReadAll: %d records, %v", len(d.Records), err)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / n / float64(unsafe.Sizeof(trace.Record{}))
	t.Logf("%.3f record sizes allocated per record (budget 2.2)", perRecord)
	if perRecord > 2.2 {
		t.Errorf("ReadAll allocated %.3f record sizes per record, budget 2.2", perRecord)
	}
}

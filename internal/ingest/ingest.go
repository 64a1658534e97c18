// Package ingest is the streaming trace frontend: it turns externally
// produced memory traces into the per-DIMM NMP request streams the
// simulator replays (internal/trace), the way the paper's FPGA prototype
// is driven ("we use pre-dumped traces to drive the system", Section
// V-A). Where internal/trace only replays traces the simulator recorded
// itself, this package accepts any trace a user authors or uploads, in
// two documented encodings, and maps its raw physical addresses onto the
// simulated DIMMs with a selectable policy (page-interleave or a
// MultiPIM-style first-touch page table).
//
// # Text format (version 1)
//
//	#dltrace v1
//	#threads <N>
//	<thread> <R|W> <addr-hex> <size> <gap-cycles>
//
// One record per line, fields separated by single spaces. Blank lines
// and lines starting with '#' after the two-line header are ignored, so
// hand-authored traces can carry comments. <thread> is a decimal thread
// ID in [0, N); <addr-hex> is the physical address in lowercase hex
// without an 0x prefix; <size> is the access size in bytes (1 ..
// MaxRecordBytes); <gap-cycles> is the compute time, in core cycles,
// between the thread's previous operation and this one.
//
// # Binary framing (version 1)
//
// A 12-byte header:
//
//	offset 0: magic "DLTR"
//	offset 4: uint16 LE version (1)
//	offset 6: uint16 LE flags (0)
//	offset 8: uint32 LE thread count
//
// followed by one frame per record, each a sequence of unsigned LEB128
// varints plus one opcode byte:
//
//	uvarint thread | uvarint addr | uvarint size | uvarint gap | op byte
//
// The op byte is 0 for a read and 1 for a write; all other values are
// reserved and rejected. A clean EOF at a frame boundary ends the trace;
// EOF inside a frame is a truncation error, never a panic.
//
// # Streaming contract
//
// Parsing is incremental: a Reader holds O(1) state per record (one
// bufio buffer, a running canonical hash), so arbitrarily large traces
// ingest without a whole-file slurp — the benchmark's trace-idc workload
// measures this path as ingest.records_per_s. Every malformed input is
// reported as an error carrying the line (text) or record (binary)
// position.
//
// # Canonical hash
//
// Reader.Sum exposes the sha256 of the trace's canonical binary
// encoding, computed while streaming. The hash is encoding-independent:
// the text and binary serializations of the same logical trace hash
// identically, which is what lets the trace spec kind (internal/spec)
// content-address ingested runs and lets dlserve cache them like every
// other job.
package ingest

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"

	"repro/internal/trace"
)

// Format identifies a trace encoding.
type Format string

// The two supported encodings.
const (
	FormatText   Format = "text"
	FormatBinary Format = "binary"
)

// Validation bounds. They exist so a corrupt or adversarial header can
// never drive allocations or replay work beyond what the input stream
// itself paid for.
const (
	// MaxThreads bounds the declared thread count.
	MaxThreads = 1 << 20
	// MaxRecordBytes bounds one record's access size (64 MiB — far above
	// any real transfer, far below the 256 MiB simulated DIMM capacity).
	MaxRecordBytes = 64 << 20
	// maxLineBytes bounds one text line.
	maxLineBytes = 1 << 16
)

// textMagic is the text header line; binMagic opens the binary header.
const textMagic = "#dltrace v1"

var binMagic = [4]byte{'D', 'L', 'T', 'R'}

// ParseError reports a malformed trace with its position: Line is the
// 1-based text line, Record the 0-based binary record (whichever the
// format makes meaningful).
type ParseError struct {
	Format Format
	Line   int
	Record uint64
	Msg    string
}

// Error implements error.
func (e *ParseError) Error() string {
	if e.Format == FormatText {
		return fmt.Sprintf("ingest: line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("ingest: record %d: %s", e.Record, e.Msg)
}

// Reader incrementally parses a trace in either encoding, detecting the
// format from the first bytes. Memory use is O(1) per record.
type Reader struct {
	br      *bufio.Reader
	format  Format
	threads int
	records uint64
	line    int // current text line (1-based)
	sum     hash.Hash
	scratch []byte // reused frame-encoding buffer for the content hash
	done    bool
	err     error
}

// NewReader sniffs the encoding, parses the versioned header and returns
// a Reader positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{br: bufio.NewReaderSize(r, 1<<16), sum: sha256.New()}
	peek, err := rd.br.Peek(4)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if len(peek) == 4 && [4]byte(peek) == binMagic {
		rd.format = FormatBinary
		err = rd.binaryHeader()
	} else {
		rd.format = FormatText
		err = rd.textHeader()
	}
	if err != nil {
		return nil, err
	}
	rd.hashHeader()
	return rd, nil
}

// Format returns the detected encoding.
func (r *Reader) Format() Format { return r.format }

// Threads returns the declared thread count.
func (r *Reader) Threads() int { return r.threads }

// Records returns how many records have been parsed so far.
func (r *Reader) Records() uint64 { return r.records }

// Sum returns the canonical (encoding-independent) sha256 of the trace
// parsed so far, in lowercase hex. Call it after Next has returned
// io.EOF to obtain the trace's content address.
func (r *Reader) Sum() string { return hex.EncodeToString(r.sum.Sum(nil)) }

// Next parses one record into rec. It returns io.EOF at a clean end of
// trace and a *ParseError for malformed input. After any error the
// Reader is exhausted.
func (r *Reader) Next(rec *trace.Record) error {
	if r.done {
		if r.err != nil {
			return r.err
		}
		return io.EOF
	}
	var err error
	if r.format == FormatBinary {
		err = r.nextBinary(rec)
	} else {
		err = r.nextText(rec)
	}
	if err != nil {
		r.done = true
		if !errors.Is(err, io.EOF) {
			r.err = err
		}
		return err
	}
	if err := r.validate(rec); err != nil {
		r.done, r.err = true, err
		return err
	}
	r.records++
	r.hashRecord(rec)
	return nil
}

// validate applies the per-record bounds shared by both encodings.
func (r *Reader) validate(rec *trace.Record) error {
	switch {
	case rec.Thread < 0 || rec.Thread >= r.threads:
		return r.errf("thread %d out of range [0, %d)", rec.Thread, r.threads)
	case rec.Size == 0:
		return r.errf("zero-size access")
	case rec.Size > MaxRecordBytes:
		return r.errf("size %d exceeds %d-byte record bound", rec.Size, MaxRecordBytes)
	case rec.Addr+uint64(rec.Size) < rec.Addr:
		return r.errf("addr %#x + size %d overflows", rec.Addr, rec.Size)
	}
	return nil
}

// errf builds a position-carrying ParseError.
func (r *Reader) errf(format string, args ...any) error {
	return &ParseError{Format: r.format, Line: r.line, Record: r.records, Msg: fmt.Sprintf(format, args...)}
}

// textHeader parses the two-line versioned text header.
func (r *Reader) textHeader() error {
	line, err := r.readLine()
	if err != nil {
		return &ParseError{Format: FormatText, Line: r.line, Msg: "empty input (want '" + textMagic + "' header)"}
	}
	if string(line) != textMagic {
		return r.errf("bad header %q (want %q)", string(line), textMagic)
	}
	line, err = r.readLine()
	if err != nil {
		return &ParseError{Format: FormatText, Line: r.line + 1, Msg: "missing '#threads N' line"}
	}
	const prefix = "#threads "
	if len(line) <= len(prefix) || string(line[:len(prefix)]) != prefix {
		return r.errf("bad threads line %q (want '#threads N')", string(line))
	}
	n, ok := parseUint(line[len(prefix):], 10)
	if !ok || n == 0 || n > MaxThreads {
		return r.errf("bad thread count %q (want 1..%d)", string(line[len(prefix):]), MaxThreads)
	}
	r.threads = int(n)
	return nil
}

// readLine returns the next line without its terminator. The returned
// slice aliases the bufio buffer and is only valid until the next read.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, r.errf("line exceeds %d bytes", maxLineBytes)
	}
	if len(line) == 0 {
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	r.line++
	// Trim the \n and an optional \r; the final line may lack both.
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, nil
}

// nextText parses one record line, skipping blanks and comments.
func (r *Reader) nextText(rec *trace.Record) error {
	for {
		line, err := r.readLine()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return io.EOF
			}
			return err
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		return r.parseRecordLine(line, rec)
	}
}

// parseRecordLine parses "<thread> <R|W> <addr-hex> <size> <gap>".
func (r *Reader) parseRecordLine(line []byte, rec *trace.Record) error {
	fields, n := splitFields(line)
	if n != 5 {
		return r.errf("want 5 fields '<thread> <R|W> <addr-hex> <size> <gap>', got %d in %q", n, string(line))
	}
	th, ok := parseUint(fields[0], 10)
	if !ok || th > MaxThreads {
		return r.errf("bad thread %q", string(fields[0]))
	}
	switch {
	case len(fields[1]) == 1 && fields[1][0] == 'R':
		rec.Write = false
	case len(fields[1]) == 1 && fields[1][0] == 'W':
		rec.Write = true
	default:
		return r.errf("bad op %q (want R or W)", string(fields[1]))
	}
	addr, ok := parseUint(fields[2], 16)
	if !ok {
		return r.errf("bad addr %q (want hex)", string(fields[2]))
	}
	size, ok := parseUint(fields[3], 10)
	if !ok || size > 1<<32-1 {
		return r.errf("bad size %q", string(fields[3]))
	}
	gap, ok := parseUint(fields[4], 10)
	if !ok {
		return r.errf("bad gap %q", string(fields[4]))
	}
	rec.Thread, rec.Addr, rec.Size, rec.Gap = int(th), addr, uint32(size), gap
	return nil
}

// splitFields splits on single-or-more spaces/tabs into at most 6 slots
// (5 expected + 1 to detect trailing junk) without allocating.
func splitFields(line []byte) ([6][]byte, int) {
	var out [6][]byte
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		if n < len(out) {
			out[n] = line[i:j]
		}
		n++
		i = j
	}
	return out, n
}

// parseUint parses an unsigned integer in the given base (10 or 16)
// without allocating. Uppercase hex is accepted.
func parseUint(b []byte, base uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if v > (^uint64(0)-d)/base {
			return 0, false // overflow
		}
		v = v*base + d
	}
	return v, true
}

// Data is a fully ingested trace: the decoded records plus the
// provenance the spec layer content-addresses.
type Data struct {
	Threads int
	Records []trace.Record
	// Hash is the canonical sha256 (see Reader.Sum).
	Hash string
	// Format is the encoding the trace arrived in.
	Format Format
}

// ReadAll streams a whole trace through a Reader, accumulating the
// decoded records. The parse itself stays incremental (no whole-file
// slurp); the returned slice is the replay working set.
func ReadAll(r io.Reader) (*Data, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	d := &Data{Threads: rd.Threads(), Format: rd.Format()}
	var rec trace.Record
	for {
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

// Drain streams a whole trace through a Reader without retaining
// records — the bounded-memory validation pass used by the upload
// endpoint. It returns the record count and canonical hash.
func Drain(r io.Reader) (records uint64, threads int, hash string, err error) {
	rd, err := NewReader(r)
	if err != nil {
		return 0, 0, "", err
	}
	var rec trace.Record
	for {
		if err := rd.Next(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, 0, "", err
		}
	}
	return rd.Records(), rd.Threads(), rd.Sum(), nil
}

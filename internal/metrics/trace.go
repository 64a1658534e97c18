package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Tracer writes a JSONL event trace: one JSON object per line, in event
// order. The format is hand-rendered (fixed key order, %g floats) so that
// identical simulations produce byte-identical traces.
//
// Event tracing rides the same discipline as fault plans: the inactive path (no
// tracer attached) is byte-identical to a build without trace support,
// because emission is guarded by a nil test in Collector and recording
// never touches simulated time.
type Tracer struct {
	w      *bufio.Writer
	events uint64
}

// NewTracer wraps w in a buffered JSONL tracer. Call Close to flush.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Packet writes a packet-level event: hop crossings, packet sends, host
// forwards, DLL retries. src/dst are layer-local node or DIMM ids.
func (tr *Tracer) Packet(t sim.Time, ev string, src, dst, bytes int) {
	fmt.Fprintf(tr.w, `{"t":%d,"ev":%q,"src":%d,"dst":%d,"bytes":%d}`+"\n",
		t, ev, src, dst, bytes)
	tr.events++
}

// Sample writes one time-series sample from the sampler.
func (tr *Tracer) Sample(t sim.Time, name string, v float64) {
	fmt.Fprintf(tr.w, `{"t":%d,"ev":"sample","name":%q,"v":%s}`+"\n",
		t, name, strconv.FormatFloat(v, 'g', -1, 64))
	tr.events++
}

// Events returns the number of events written so far.
func (tr *Tracer) Events() uint64 { return tr.events }

// Close flushes buffered events. The underlying writer is not closed.
func (tr *Tracer) Close() error { return tr.w.Flush() }

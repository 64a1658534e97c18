package exp

import (
	"bytes"
	"testing"
)

// renderAllReduce runs the allreduce experiment with the given pool width
// and returns the rendered tables.
func renderAllReduce(t *testing.T, jobs int) []byte {
	t.Helper()
	e, ok := ByID("allreduce")
	if !ok {
		t.Fatal("experiment allreduce not registered")
	}
	o := Options{Quick: true, Seed: 42}
	o.Jobs = jobs
	var buf bytes.Buffer
	for _, tb := range e.Run(o) {
		tb.Render(&buf)
	}
	return buf.Bytes()
}

// TestAllReduceJobsByteIdentity is the collective
// determinism contract: the training grid (mechanisms x payloads x DL
// topologies, all four collectives hot) must render byte-identically
// whether it runs serially or fanned across workers.
func TestAllReduceJobsByteIdentity(t *testing.T) {
	serial := renderAllReduce(t, 1)
	if len(serial) == 0 {
		t.Fatal("empty rendered tables")
	}
	if again := renderAllReduce(t, 1); !bytes.Equal(serial, again) {
		t.Fatalf("two serial runs differ:\n%s\n---\n%s", serial, again)
	}
	if par := renderAllReduce(t, 4); !bytes.Equal(serial, par) {
		t.Fatalf("jobs=1 and jobs=4 differ:\n%s\n---\n%s", serial, par)
	}
}

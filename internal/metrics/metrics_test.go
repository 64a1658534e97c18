package metrics

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRegistryMerge checks registry-level merging: histograms merge
// exactly, gauges take the incoming value, and name enumeration is
// sorted (the property table rendering depends on).
func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Hist("z.lat").Observe(10)
	a.Hist("a.lat").Observe(20)
	a.SetGauge("util", 0.25)
	b.Hist("z.lat").Observe(30)
	b.SetGauge("util", 0.75)
	b.SetGauge("depth", 3)

	a.Merge(b)
	if got := a.Hist("z.lat").Count(); got != 2 {
		t.Errorf("merged z.lat count = %d, want 2", got)
	}
	if got := a.Gauge("util"); got != 0.75 {
		t.Errorf("merged gauge = %v, want last-writer 0.75", got)
	}
	names := a.HistNames()
	if len(names) != 2 || names[0] != "a.lat" || names[1] != "z.lat" {
		t.Errorf("HistNames not sorted: %v", names)
	}
	gn := a.GaugeNames()
	if len(gn) != 2 || gn[0] != "depth" || gn[1] != "util" {
		t.Errorf("GaugeNames not sorted: %v", gn)
	}
}

// TestNilCollector pins the inactive path: every method on a nil
// *Collector must be a safe no-op, because un-observed systems pass nil
// all the way down the core/noc/host stack.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Observe("x", 1)
	c.Packet(0, "pkt", 0, 1, 80)
	c.Sample(0, "util", 0.5)
	if c.Active() {
		t.Error("nil collector reports active")
	}
}

// TestTracerFormat pins the JSONL wire format byte-for-byte: the ci trace
// smoke and any external consumers depend on the key order staying fixed.
func TestTracerFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Packet(1500, "hop", 0, 1, 80)
	tr.Sample(2000, "linkutil.g0.0->1", 0.5)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1500,"ev":"hop","src":0,"dst":1,"bytes":80}` + "\n" +
		`{"t":2000,"ev":"sample","name":"linkutil.g0.0->1","v":0.5}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("trace format:\n got %q\nwant %q", got, want)
	}
	if tr.Events() != 2 {
		t.Errorf("events = %d, want 2", tr.Events())
	}
}

// TestSamplerSeries drives a sampler off a real engine and checks the
// recorded series: fixed-period timestamps, probe visit order, and trace
// emission for every sample.
func TestSamplerSeries(t *testing.T) {
	eng := sim.NewEngine()
	var buf bytes.Buffer
	coll := NewCollector()
	coll.Trace = NewTracer(&buf)
	s := NewSampler(100, coll)
	s.AddProbe("ramp", func(now sim.Time) float64 { return float64(now) })
	s.AddProbe("flat", func(now sim.Time) float64 { return 2 })
	s.Start(eng)
	eng.At(350, s.Stop)
	eng.At(1000, s.Stop) // ends the run even if the first Stop did not hold
	eng.Run()

	series := s.Series()
	if len(series) != 2 {
		t.Fatalf("series count %d", len(series))
	}
	ramp := series[0]
	if len(ramp.At) != 3 || ramp.At[0] != 100 || ramp.At[2] != 300 {
		t.Fatalf("ramp timestamps %v, want [100 200 300]", ramp.At)
	}
	if ramp.Mean() != 200 || ramp.Max() != 300 {
		t.Errorf("ramp mean/max = %v/%v", ramp.Mean(), ramp.Max())
	}
	if series[1].Mean() != 2 {
		t.Errorf("flat mean %v", series[1].Mean())
	}
	if err := coll.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"ev":"sample"`); n != 6 {
		t.Errorf("trace carries %d samples, want 6", n)
	}
}

package metrics

import (
	"sort"

	"repro/internal/sim"
)

// Metric names shared between the simulation layers and the reports. The
// latency breakdown splits one packet's life into where the time went:
// flow-control/bus queueing, SerDes serialization, per-hop wire+router
// relay, host CPU forwarding, and DLL retry stalls.
const (
	HistPacketLat = "pkt.lat"      // per-packet link latency (send to arrival), ps
	HistAccessLat = "access.lat"   // per-transaction remote access latency, ps
	HistQueue     = "lat.queue"    // per-hop stall, credit and bus queueing wait, ps
	HistSerDes    = "lat.serdes"   // per-hop SerDes serialization time, ps
	HistRelay     = "lat.relay"    // per-hop wire + router pipeline time, ps
	HistHostFwd   = "lat.hostfwd"  // per-episode host forwarding latency, ps
	HistDLLRetry  = "lat.dllretry" // per-retry DLL stall (NAK replay or timeout), ps
)

// Registry is a named set of histograms and gauges. The zero value is
// ready to use. It is not goroutine-safe: like every simulation structure
// in this repository, a Registry belongs to exactly one single-threaded
// simulation; parallel experiment jobs each own a private Registry and
// merge results in job-index order.
type Registry struct {
	hists  map[string]*Histogram
	gauges map[string]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Histogram {
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistNames returns the names of all histograms in sorted order.
func (r *Registry) HistNames() []string {
	names := make([]string, 0, len(r.hists))
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SetGauge records the latest value of a named gauge.
func (r *Registry) SetGauge(name string, v float64) {
	if r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	r.gauges[name] = v
}

// Gauge returns the last value set for the named gauge (zero if never set).
func (r *Registry) Gauge(name string) float64 { return r.gauges[name] }

// GaugeNames returns all gauge names in sorted order.
func (r *Registry) GaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for k := range r.gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge folds every histogram and gauge of other into r. Histogram merges
// are exact; gauges take other's value (last writer wins), so callers
// merging several registries should do so in a fixed order — internal/exp
// merges in job-index order.
func (r *Registry) Merge(other *Registry) {
	if other == nil {
		return
	}
	for _, name := range other.HistNames() {
		r.Hist(name).Merge(other.hists[name])
	}
	for _, name := range other.GaugeNames() {
		r.SetGauge(name, other.gauges[name])
	}
}

// Collector bundles the observability hooks the simulation layers see: a
// registry for histograms/gauges and an optional event tracer. A nil
// *Collector is the inactive path — all methods are nil-safe no-ops — so
// un-instrumented systems skip every observation with one pointer test.
type Collector struct {
	Reg   *Registry
	Trace *Tracer
}

// NewCollector returns a collector with a fresh registry and no tracer.
func NewCollector() *Collector { return &Collector{Reg: NewRegistry()} }

// Observe records a duration sample into the named histogram.
func (c *Collector) Observe(name string, d sim.Time) {
	if c == nil {
		return
	}
	c.Reg.Hist(name).Observe(d)
}

// Active reports whether observations are being recorded.
func (c *Collector) Active() bool { return c != nil }

// Packet emits a packet-level trace event if a tracer is attached.
func (c *Collector) Packet(t sim.Time, ev string, src, dst, bytes int) {
	if c == nil || c.Trace == nil {
		return
	}
	c.Trace.Packet(t, ev, src, dst, bytes)
}

// Sample emits a time-series sample trace event if a tracer is attached.
func (c *Collector) Sample(t sim.Time, name string, v float64) {
	if c == nil || c.Trace == nil {
		return
	}
	c.Trace.Sample(t, name, v)
}

package noc

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// FlitBytes is the link flit size: the DL protocol uses 128-bit flits, and
// a packet serializes as whole flits.
const FlitBytes = 16

// HopRelay is the fixed per-hop crossing after serialization: a 1 ns PCB
// trace plus a 2-cycle router at 2.5 GHz.
const HopRelay sim.Time = 1800

// LinkConfig describes the physical links of the network. The defaults the
// paper uses are GRS SerDes at 25 GB/s per bidirectional link (Table II).
type LinkConfig struct {
	BytesPerSec float64 // per-direction link bandwidth
	Credits     int     // flit buffer depth per link (flow control window)
}

// GRSLink returns the paper's default link configuration: 25 GB/s GRS with
// a 64-flit credit window.
func GRSLink() LinkConfig {
	return LinkConfig{BytesPerSec: 25e9, Credits: 64}
}

// Validate checks the configuration.
func (c LinkConfig) Validate() error {
	if c.BytesPerSec <= 0 {
		return fmt.Errorf("noc: non-positive link bandwidth")
	}
	if c.Credits <= 0 {
		return fmt.Errorf("noc: non-positive credit count")
	}
	return nil
}

// link is one unidirectional channel between adjacent nodes.
type link struct {
	bus     sim.BusyLine
	credits []sim.Time // ring buffer: when each credit returns
	crIdx   int
	bytes   uint64
	packets uint64
}

// creditReady returns the earliest time a new packet may start injecting
// into the link, honoring the flow-control window, and consumes a credit
// returning at ret.
func (l *link) creditAcquire(at sim.Time, ret sim.Time) sim.Time {
	if w := l.credits[l.crIdx]; w > at {
		at = w
	}
	l.credits[l.crIdx] = ret
	l.crIdx = (l.crIdx + 1) % len(l.credits)
	return at
}

// Network simulates packet transport over a Topology. It is not
// goroutine-safe; the single-threaded simulation engine serializes access.
type Network struct {
	topo Topology
	cfg  LinkConfig
	n    int // node count, cached off the topology

	// links is the dense channel table, indexed u*n+v (nil where the
	// topology has no edge). The per-hop lookup on every packet crossing
	// is one multiply and one bounds-checked load, replacing the old
	// map[[2]int]*link hash on the hottest path in the simulator.
	links []*link

	// sortedKeys / sortedLinks are the report surface, precomputed once at
	// NewNetwork: every "u->v" key in sorted order with its link alongside,
	// so samplers and end-of-run tables never rebuild key strings.
	sortedKeys  []string
	sortedLinks []*link

	// Fault injection, attached via SetFaults. inj==nil is the perfect
	// physical layer; gid maps local node index to the global DIMM id
	// fault plans are written in.
	inj *fault.Injector
	gid []int

	// Route and broadcast-tree caches, valid for the injector epoch held
	// in epoch: a fault-plan link-state transition (or a DLL ForceDown)
	// bumps the injector epoch and clears them. With no injector the
	// epoch is constant zero, so each route and tree is computed once
	// for the network's lifetime. Cached slices are shared with callers,
	// which treat them as read-only.
	epoch  uint64
	routes []route    // src*n+dst -> route at this epoch
	trees  []treePlan // src -> broadcast tree at this epoch

	// Observability, attached via SetMetrics. coll==nil records nothing;
	// observation is passive and never changes any reservation, so an
	// instrumented run is timing-identical to a bare one.
	coll *metrics.Collector
}

// NewNetwork builds the link state for every edge of the topology.
func NewNetwork(topo Topology, cfg LinkConfig) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nn := topo.Nodes()
	n := &Network{
		topo:  topo,
		cfg:   cfg,
		n:     nn,
		links: make([]*link, nn*nn),
	}
	byKey := make(map[string]*link)
	for u := 0; u < nn; u++ {
		for _, v := range topo.Neighbors(u) {
			l := &link{credits: make([]sim.Time, cfg.Credits)}
			n.links[u*nn+v] = l
			key := fmt.Sprintf("%d->%d", u, v)
			n.sortedKeys = append(n.sortedKeys, key)
			byKey[key] = l
		}
	}
	sort.Strings(n.sortedKeys)
	n.sortedLinks = make([]*link, len(n.sortedKeys))
	for i, k := range n.sortedKeys {
		n.sortedLinks[i] = byKey[k]
	}
	n.routes = make([]route, nn*nn)
	n.trees = make([]treePlan, nn)
	return n
}

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// Config returns the link configuration.
func (n *Network) Config() LinkConfig { return n.cfg }

// link resolves the channel u->v. A missing link is an error rather than
// a panic: static routes never produce one, but fault-aware rerouting
// walks paths a plan may have invalidated, and the caller is expected to
// degrade (reroute, or fall back to host forwarding) instead of crashing.
func (n *Network) link(u, v int) (*link, error) {
	if u >= 0 && u < n.n && v >= 0 && v < n.n {
		if l := n.links[u*n.n+v]; l != nil {
			return l, nil
		}
	}
	return nil, fmt.Errorf("noc: no link %d->%d in %s", u, v, n.topo.Name())
}

// serTime returns the serialization time of a packet of size bytes (rounded
// up to whole flits) on one link.
func (n *Network) serTime(size int) sim.Time {
	flits := (size + FlitBytes - 1) / FlitBytes
	if flits == 0 {
		flits = 1
	}
	return sim.TransferTime(uint64(flits*FlitBytes), n.cfg.BytesPerSec)
}

// SetFaults attaches a fault injector to the network. gid maps each
// local node index to the global DIMM id fault plans are written in
// (group networks are numbered 0..per-1 locally but plans name DIMMs
// system-wide).
func (n *Network) SetFaults(inj *fault.Injector, gid []int) {
	if len(gid) != n.n {
		panic(fmt.Sprintf("noc: SetFaults gid has %d entries for %d nodes", len(gid), n.n))
	}
	n.inj = inj
	n.gid = gid
}

// HopCrossing moves one packet of size bytes across the link u->v. headAt
// is when the packet's head is ready at u; the return value is when the
// full packet has arrived at v, with the crossing's fault verdict.
// Transport is virtual cut-through at packet granularity: credit for the
// whole packet must be available before injection, then the link
// serializes packets FIFO, and each hop charges serialization plus wire
// and router pipeline latency. DL packets are at most 32 flits (256 B +
// header), so packet-granularity timing differs from flit-level wormhole
// by less than one packet serialization per hop.
//
// With an injector attached the crossing also honors stall windows (the
// head waits for the link to wake up) and degraded-lane bandwidth (a
// lane failure narrows the cable, stretching serialization by
// 1/factor), fails when the link is permanently down at headAt, and
// draws the crossing's deterministic verdict. Bus occupancy and per-link
// byte counters are charged even for corrupted or dropped crossings —
// the flits did occupy the wire; only the delivery failed. Down-ness is
// checked at headAt only: flits already injected when a link dies still
// complete their crossing, and the next injection attempt observes the
// dead link.
func (n *Network) HopCrossing(u, v int, headAt sim.Time, size int) (sim.Time, fault.Verdict, error) {
	l, err := n.link(u, v)
	if err != nil {
		return 0, fault.VerdictOK, err
	}
	ser := n.serTime(size)
	ready, verdict := headAt, fault.VerdictOK
	if n.inj != nil {
		gu, gv := n.gid[u], n.gid[v]
		if n.inj.Down(gu, gv, headAt) {
			return 0, fault.VerdictOK, fmt.Errorf("noc: link %d-%d down at t=%dps", gu, gv, headAt)
		}
		ready = n.inj.StallClear(gu, gv, headAt)
		if f := n.inj.Factor(gu, gv, ready); f > 0 && f < 1 {
			ser = sim.Time(float64(ser)/f + 0.5)
		}
		verdict = n.inj.Verdict(gu, gv, l.packets+1, size)
	}
	start := l.creditAcquire(ready, ready+ser+HopRelay)
	start, end := l.bus.Reserve(start, ser)
	l.bytes += uint64(size)
	l.packets++
	if n.coll.Active() {
		// Per-hop latency breakdown: stall, credit and bus queueing ahead
		// of the head, serialization, then the fixed wire+router relay.
		n.coll.Observe(metrics.HistQueue, start-headAt)
		n.coll.Observe(metrics.HistSerDes, ser)
		n.coll.Observe(metrics.HistRelay, HopRelay)
		n.coll.Packet(start, "hop", u, v, size)
	}
	return end + HopRelay, verdict, nil
}

// SetMetrics attaches an observability collector. A nil collector (the
// default) records nothing.
func (n *Network) SetMetrics(c *metrics.Collector) { n.coll = c }

// LinkKeys returns every "u->v" link key in deterministic sorted order —
// the iteration order sampler probes and report tables must use. The
// slice is precomputed at NewNetwork and shared: callers must not mutate
// it.
func (n *Network) LinkKeys() []string { return n.sortedKeys }

// LinkUtilizationAt returns the utilization over [0, now] of the i-th
// link in LinkKeys order. It is the alloc-free per-link probe the metrics
// sampler uses every tick.
func (n *Network) LinkUtilizationAt(i int, now sim.Time) float64 {
	return n.sortedLinks[i].bus.Utilization(now)
}

// LinkBytesAt returns the bytes carried so far by the i-th link in
// LinkKeys order — the per-link demand column of the traffic-matrix
// report.
func (n *Network) LinkBytesAt(i int) uint64 { return n.sortedLinks[i].bytes }

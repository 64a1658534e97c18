package noc

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LinkConfig describes the physical links of the network. The defaults the
// paper uses are GRS SerDes at 25 GB/s per bidirectional link (Table II).
type LinkConfig struct {
	BytesPerSec   float64  // per-direction link bandwidth
	WireLatency   sim.Time // propagation delay per hop
	RouterLatency sim.Time // router pipeline per hop
	FlitBytes     int      // flit size (the DL protocol uses 128-bit flits)
	Credits       int      // flit buffer depth per link (flow control window)
}

// GRSLink returns the paper's default link configuration: 25 GB/s GRS,
// 128-bit flits, a short PCB trace and a 2-cycle router at 2.5 GHz.
func GRSLink() LinkConfig {
	return LinkConfig{
		BytesPerSec:   25e9,
		WireLatency:   1 * sim.Nanosecond,
		RouterLatency: 800, // 2 cycles at 2.5 GHz
		FlitBytes:     16,
		Credits:       64,
	}
}

// Validate checks the configuration.
func (c LinkConfig) Validate() error {
	if c.BytesPerSec <= 0 {
		return fmt.Errorf("noc: non-positive link bandwidth")
	}
	if c.FlitBytes <= 0 {
		return fmt.Errorf("noc: non-positive flit size")
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

// Stats aggregates network activity.
type Stats struct {
	Packets   uint64
	Bytes     uint64
	Hops      stats.Dist
	LatencyPs stats.Dist
	// Corrupted and Dropped count fault-injected crossings: flits that
	// arrived CRC-broken, and flits that never arrived at all.
	Corrupted uint64
	Dropped   uint64
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

	Stats Stats

	// Fault injection, attached via SetFaults. inj==nil is the perfect
	// physical layer; gid maps local node index to the global DIMM id
	// fault plans are written in.
	inj *fault.Injector
	gid []int

	// Topology-only caches, filled at most once per (src,dst)/src for the
	// network's lifetime: static routes do not depend on link state, so
	// the common no-fault run computes each route, spanning tree and BFS
	// order exactly once. Cached slices are shared with callers, which
	// treat paths as read-only.
	staticRoutes [][]int // src*n+dst -> path (nil = not computed)
	trees        [][]int // src -> spanning-tree parent (nil = not computed)
	orders       [][]int // src -> BFS delivery order for broadcast

	// Fault-aware caches, valid for the injector epoch cacheEpoch: a
	// fault-plan link-state transition (or a DLL ForceDown) bumps the
	// injector epoch and flushes them. With no injector the epoch is
	// constant zero and these are never touched.
	cacheEpoch uint64
	fstatus    []uint8 // src*n+dst -> route status at this epoch
	froutes    [][]int // src*n+dst -> path for routeStatic/routeDetour
	ftrees     [][]int // src -> live spanning-tree parent (nil = not computed)
	fmiss      [][]int // src -> unreachable nodes under that tree
	forders    [][]int // src -> BFS delivery order under that tree

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
	n.staticRoutes = make([][]int, nn*nn)
	n.trees = make([][]int, nn)
	n.orders = make([][]int, nn)
	n.resetFaultCaches()
	return n
}

// resetFaultCaches (re)allocates the epoch-keyed caches empty. The
// topology-only caches survive: a static route is valid in every epoch.
func (n *Network) resetFaultCaches() {
	n.fstatus = make([]uint8, n.n*n.n)
	n.froutes = make([][]int, n.n*n.n)
	n.ftrees = make([][]int, n.n)
	n.fmiss = make([][]int, n.n)
	n.forders = make([][]int, n.n)
}

// syncEpoch flushes the fault-aware caches if the injector's link state
// has transitioned since they were filled. With no injector the epoch is
// constant zero and this is one predictable branch.
func (n *Network) syncEpoch(at sim.Time) {
	if ep := n.inj.EpochAt(at); ep != n.cacheEpoch {
		n.resetFaultCaches()
		n.cacheEpoch = ep
	}
}

// staticRoute returns the topology's route src->dst, computed at most
// once per pair.
func (n *Network) staticRoute(src, dst int) []int {
	idx := src*n.n + dst
	p := n.staticRoutes[idx]
	if p == nil {
		p = n.topo.Route(src, dst)
		n.staticRoutes[idx] = p
	}
	return p
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
	flits := (size + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	if flits == 0 {
		flits = 1
	}
	return sim.TransferTime(uint64(flits*n.cfg.FlitBytes), n.cfg.BytesPerSec)
}

// sendHop moves a packet across one link. headAt is when the packet's head
// is ready at u; the return value is when the full packet has arrived at v.
func (n *Network) sendHop(u, v int, headAt sim.Time, size int) (sim.Time, error) {
	l, err := n.link(u, v)
	if err != nil {
		return 0, err
	}
	ser := n.serTime(size)
	// Credit for the whole packet must be available before injection
	// (virtual cut-through: a packet only advances when the next buffer can
	// hold it), then the link serializes packets FIFO.
	start := l.creditAcquire(headAt, headAt+ser+n.cfg.WireLatency+n.cfg.RouterLatency)
	start, end := l.bus.Reserve(start, ser)
	l.bytes += uint64(size)
	l.packets++
	if n.coll.Active() {
		// Per-hop latency breakdown: credit/bus queueing ahead of the
		// head, serialization, then the fixed wire+router relay pipeline.
		n.coll.Observe(metrics.HistQueue, start-headAt)
		n.coll.Observe(metrics.HistSerDes, ser)
		n.coll.Observe(metrics.HistRelay, n.cfg.WireLatency+n.cfg.RouterLatency)
		n.coll.Packet(start, "hop", u, v, size)
	}
	return end + n.cfg.WireLatency + n.cfg.RouterLatency, nil
}

// Send transports one packet of size bytes from src to dst, starting no
// earlier than at. It returns the arrival time of the full packet at dst
// and the number of hops taken. Transport is virtual cut-through at packet
// granularity: a packet advances to the next link only once that link's
// buffer has a full-packet credit, and each hop charges serialization plus
// wire and router pipeline latency. DL packets are at most 32 flits
// (256 B + header), so packet-granularity timing differs from flit-level
// wormhole by less than one packet serialization per hop.
func (n *Network) Send(at sim.Time, src, dst int, size int) (sim.Time, int, error) {
	if src == dst {
		return at, 0, nil
	}
	path := n.staticRoute(src, dst)
	t := at
	for i := 0; i+1 < len(path); i++ {
		var err error
		t, err = n.sendHop(path[i], path[i+1], t, size)
		if err != nil {
			return 0, 0, err
		}
	}
	hops := len(path) - 1
	n.Stats.Packets++
	n.Stats.Bytes += uint64(size)
	n.Stats.Hops.Observe(float64(hops))
	n.Stats.LatencyPs.Observe(float64(t - at))
	return t, hops, nil
}

// Broadcast floods one packet from src to every other node along the BFS
// spanning tree. It returns the arrival time at each node (src maps to at)
// and the time the last node received the packet.
func (n *Network) Broadcast(at sim.Time, src int, size int) (arrivals []sim.Time, last sim.Time, err error) {
	parent := n.trees[src]
	if parent == nil {
		parent, err = SpanningTree(n.topo, src)
		if err != nil {
			return nil, 0, err
		}
		n.trees[src] = parent
		n.orders[src] = BFSOrder(parent, src)
	}
	arrivals = make([]sim.Time, n.n)
	order := n.orders[src]
	arrivals[src] = at
	last = at
	for _, node := range order {
		if node == src {
			continue
		}
		t, err := n.sendHop(parent[node], node, arrivals[parent[node]], size)
		if err != nil {
			return nil, 0, err
		}
		arrivals[node] = t
		if t > last {
			last = t
		}
	}
	n.Stats.Packets++
	n.Stats.Bytes += uint64(size)
	n.Stats.LatencyPs.Observe(float64(last - at))
	return arrivals, last, nil
}

// BFSOrder returns nodes in an order where parents precede children.
// parent entries < 0 that are not the src are treated as absent (an
// unreachable node in a fault-partitioned tree).
func BFSOrder(parent []int, src int) []int {
	children := make([][]int, len(parent))
	for node, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], node)
		}
	}
	order := []int{src}
	for i := 0; i < len(order); i++ {
		order = append(order, children[order[i]]...)
	}
	return order
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

// This file implements the DIMM-Link interconnect: DL groups, the hybrid
// routing mechanism of Section III-C/D, inter-DIMM broadcast, hierarchical
// synchronization, and the polling-proxy optimization of Section IV-A.
package core

import (
	"fmt"
	"slices"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/idc"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TopologyKind selects how the DIMMs of one DL group are wired (Section VI).
type TopologyKind string

// Supported DL-group topologies. Chain (the half-ring of adjacent DIMMs) is
// the paper's practical prototype; Ring/Mesh/Torus are the Section VI
// exploration.
const (
	TopoChain TopologyKind = "chain"
	TopoRing  TopologyKind = "ring"
	TopoMesh  TopologyKind = "mesh"
	TopoTorus TopologyKind = "torus"
)

// SyncMode selects the synchronization scheme (Section III-D / Figure 14).
type SyncMode int

const (
	// SyncHierarchical aggregates per DIMM, then per DL group at the master
	// DIMM, then across group masters.
	SyncHierarchical SyncMode = iota
	// SyncCentralized sends every DIMM's message to one central master
	// core (the Figure 14 "DIMM-Link-Central" baseline).
	SyncCentralized
)

// InterGroupTransport selects how cross-group packets travel.
type InterGroupTransport int

const (
	// ViaHost is the in-server design: the host CPU polls and forwards
	// (Sections III-C/IV-A).
	ViaHost InterGroupTransport = iota
	// ViaCXL is the Section VI disaggregated-memory setting: each DL group
	// is a memory blade and blades exchange packets over CXL ports and a
	// switch, with no host polling at all.
	ViaCXL
)

// The inter-blade fabric of the disaggregated setting has CXL-class
// numbers: a x8 port at 32 GB/s and a ~600 ns blade-to-blade load path.
const (
	cxlBytesPerSec   = 32e9                 // per-port bandwidth, full duplex
	cxlPortLatency   = 150 * sim.Nanosecond // blade egress/ingress port crossing
	cxlSwitchLatency = 300 * sim.Nanosecond // switch traversal
)

// The DL-Controller runs at 2.5 GHz. Packetizing and decoding a packet in
// the NW-Interface take 20 cycles each: the prototype's "the packet
// generation/decoding can finish in 18 cycles" without CRC (Section V-A),
// plus a couple of pipelined cycles for the ASIC CRC.
const (
	ctrlCycle       sim.Time = 400 // ps, one cycle at 2.5 GHz
	packetizeCycles          = 20
	decodeCycles             = 20
)

// Config parameterizes the DIMM-Link interconnect.
type Config struct {
	Link     noc.LinkConfig // SerDes link parameters (GRS defaults)
	Topology TopologyKind   // of each DL group; see GroupsFor for the split

	// InterGroup selects host forwarding (default) or the disaggregated
	// CXL fabric.
	InterGroup InterGroupTransport

	// Sync selects hierarchical or centralized synchronization.
	Sync SyncMode

	// Fault optionally injects link faults (bit errors, stalls, permanent
	// link-down, degraded lanes; see internal/fault). Packets take the
	// same hop-by-hop path with or without a plan. Under a nil or
	// inactive plan every hop skips the DLL, so the output equals a run
	// without fault support. When the plan is active every hop runs the
	// full DLL of dll.go (replay buffer, ACK/NAK, sequence window), whose
	// cost lands in the timeline even for crossings that never fault.
	Fault *fault.Plan
}

// DefaultConfig returns the paper's evaluated configuration: GRS links at
// 25 GB/s, chain topology, host forwarding between groups, hierarchical
// synchronization.
func DefaultConfig() Config {
	return Config{
		Link:       noc.GRSLink(),
		Topology:   TopoChain,
		InterGroup: ViaHost,
		Sync:       SyncHierarchical,
	}
}

// GroupsFor returns the paper's group count rule: DIMMs sit on both sides
// of the CPU socket, one DL group per side, except that a 4-DIMM system
// fits on one side.
func GroupsFor(numDIMMs int) int {
	if numDIMMs <= 4 {
		return 1
	}
	return 2
}

// arrivalScratch is the reusable arrival buffer of the broadcast flood.
// It grows to the largest group ever flooded and is reused across chunks
// and calls.
type arrivalScratch []sim.Time

// zeroed returns the buffer resliced to n entries, all zero.
func (s *arrivalScratch) zeroed(n int) []sim.Time {
	if cap(*s) < n {
		*s = make([]sim.Time, n)
	}
	b := (*s)[:n]
	clear(b)
	return b
}

// Link is the DIMM-Link interconnect. It implements idc.Interconnect.
type Link struct {
	geo  mem.Geometry
	cfg  Config
	dram []*dram.Module
	host *host.Host

	groups  []*group
	groupOf []int // DIMM -> group index
	nodeOf  []int // DIMM -> node index within its group
	ctrl    []*Controller
	ctrs    stats.Counters

	// Handles into ctrs, registered once in NewLink.
	tx                                                  idc.TxCounters
	linkBytes, retries, proxyRegs, cxlBytes, interGroup *stats.Counter
	fc                                                  faultCounters

	// flt is the per-run fault state; nil means the perfect physical
	// layer, whose hops skip the DLL.
	flt *fault.Injector

	// bcScratch is the broadcast flood's arrival buffer.
	bcScratch arrivalScratch

	// Observability, attached via SetMetrics; nil records nothing.
	coll *metrics.Collector
}

// group is one DL group: the DIMMs on one side of the CPU (or one memory
// blade in the disaggregated setting), wired by a DL-Bridge.
type group struct {
	base   int // first DIMM ID
	size   int
	net    *noc.Network
	master int // master DIMM for synchronization; also the polling proxy

	// CXL blade ports (used only with ViaCXL).
	egress  sim.BusyLine
	ingress sim.BusyLine

	// dllCh holds per-directed-link DLL channel state (fault mode only),
	// keyed by local node pair.
	dllCh map[[2]int]*dllChan
}

// groupMaster is the master DIMM of the DL group of per DIMMs starting at
// base: "we heuristically select the DIMM at the middle of each group as
// the master" — and the master doubles as the polling proxy.
func groupMaster(base, per int) int { return base + (per-1)/2 }

// PollTargets returns the DIMMs the host's periodic loop scans on a
// DIMM-Link system: each group's master in the proxy modes, every DIMM in
// the base modes, and none with CXL blades (disaggregated blades: the
// host never polls; inter-blade traffic uses the CXL fabric).
func PollTargets(numDIMMs int, mode host.PollingMode, cfg Config) []int {
	if cfg.InterGroup == ViaCXL {
		return nil
	}
	if mode == host.BasePolling || mode == host.BaseInterrupt {
		all := make([]int, numDIMMs)
		for i := range all {
			all[i] = i
		}
		return all
	}
	groups := GroupsFor(numDIMMs)
	per := numDIMMs / groups
	proxies := make([]int, groups)
	for g := range proxies {
		proxies[g] = groupMaster(g*per, per)
	}
	return proxies
}

// NewLink builds a DIMM-Link interconnect over the system's DIMMs, whose
// host-forwarded traffic goes through h. It rejects a DIMM count the
// groups or the packet format cannot hold, and a fault event on a DIMM
// pair that is not a link of the built topology.
func NewLink(geo mem.Geometry, modules []*dram.Module, h *host.Host, cfg Config) (*Link, error) {
	groups := GroupsFor(geo.NumDIMMs)
	if geo.NumDIMMs%groups != 0 {
		return nil, fmt.Errorf("core: %d DIMMs not divisible into %d groups", geo.NumDIMMs, groups)
	}
	if geo.NumDIMMs > MaxDIMMs {
		return nil, fmt.Errorf("core: %d DIMMs exceed the %d-DIMM SRC/DST field", geo.NumDIMMs, MaxDIMMs)
	}
	l := &Link{
		geo:     geo,
		cfg:     cfg,
		dram:    modules,
		host:    h,
		groupOf: make([]int, geo.NumDIMMs),
		nodeOf:  make([]int, geo.NumDIMMs),
	}
	l.tx = idc.NewTxCounters(&l.ctrs)
	l.linkBytes = l.ctrs.Handle(idc.CtrLinkBytes)
	l.retries = l.ctrs.Handle(idc.CtrRetries)
	l.proxyRegs = l.ctrs.Handle(idc.CtrProxyRegs)
	l.cxlBytes = l.ctrs.Handle(idc.CtrCXLBytes)
	l.interGroup = l.ctrs.Handle(idc.CtrInterGroup)
	l.fc = newFaultCounters(&l.ctrs)
	l.flt = fault.NewInjector(cfg.Fault)
	per := geo.NumDIMMs / groups
	for g := 0; g < groups; g++ {
		gr := &group{base: g * per, size: per}
		gr.net = noc.NewNetwork(buildTopology(cfg.Topology, per), cfg.Link)
		if l.flt != nil {
			gids := make([]int, per)
			for i := range gids {
				gids[i] = gr.base + i
			}
			gr.net.SetFaults(l.flt, gids)
			gr.dllCh = make(map[[2]int]*dllChan)
		}
		gr.master = groupMaster(gr.base, per)
		l.groups = append(l.groups, gr)
		for i := 0; i < per; i++ {
			l.groupOf[gr.base+i] = g
			l.nodeOf[gr.base+i] = i
		}
	}
	if err := l.checkFaultLinks(cfg.Fault); err != nil {
		return nil, err
	}
	l.ctrl = make([]*Controller, geo.NumDIMMs)
	for d := range l.ctrl {
		l.ctrl[d] = NewController(d)
	}
	return l, nil
}

// SetMetrics attaches an observability collector (latency histograms,
// per-link utilization probes, event tracing; see internal/metrics) to the
// link and every DL group's network. Observation is passive — it never
// schedules events or reserves simulated resources — so a nil collector
// (the default) and an attached one produce timing-identical simulations.
func (l *Link) SetMetrics(c *metrics.Collector) {
	l.coll = c
	for _, g := range l.groups {
		g.net.SetMetrics(c)
	}
}

// checkFaultLinks rejects a fault event on a DIMM pair that is not a
// link of the built topology: out of range, split across DL groups, or
// not adjacent within its group. The injector keys events by pair, so
// such an event would otherwise be inert and the run fault-free.
func (l *Link) checkFaultLinks(p *fault.Plan) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if !l.isLink(e.A, e.B) {
			g := l.groups[0]
			return fmt.Errorf("core: fault event %d: %d-%d is not a DIMM-Link link (%d DIMMs in %d %s group(s) of %d)",
				i, e.A, e.B, l.geo.NumDIMMs, len(l.groups), g.net.Topology().Name(), g.size)
		}
	}
	return nil
}

// isLink reports whether DIMMs a and b are joined by a DL link.
func (l *Link) isLink(a, b int) bool {
	n := l.geo.NumDIMMs
	if a < 0 || b < 0 || a >= n || b >= n || l.groupOf[a] != l.groupOf[b] {
		return false
	}
	return slices.Contains(l.groups[l.groupOf[a]].net.Topology().Neighbors(l.nodeOf[a]), l.nodeOf[b])
}

// Controllers exposes the per-DIMM structural state (tag/buffer pressure).
func (l *Link) Controllers() []*Controller { return l.ctrl }

// cxlSend carries bytes from srcGroup's blade to dstGroup's blade over the
// CXL fabric: egress port serialization, switch traversal, ingress port.
func (l *Link) cxlSend(at sim.Time, srcGroup, dstGroup int, bytes uint32) sim.Time {
	dur := sim.TransferTime(uint64(bytes), cxlBytesPerSec)
	_, egEnd := l.groups[srcGroup].egress.Reserve(at, dur)
	arrive := egEnd + cxlPortLatency + cxlSwitchLatency
	_, inEnd := l.groups[dstGroup].ingress.Reserve(arrive, dur)
	l.cxlBytes.Add(uint64(bytes))
	return inEnd + cxlPortLatency
}

func buildTopology(kind TopologyKind, n int) noc.Topology {
	switch kind {
	case TopoChain, "":
		return noc.NewChain(n)
	case TopoRing:
		return noc.NewRing(n)
	case TopoMesh:
		w, h := meshDims(n)
		return noc.NewMesh(w, h)
	case TopoTorus:
		w, h := meshDims(n)
		return noc.NewTorus(w, h)
	default:
		panic(fmt.Sprintf("core: unknown topology %q", kind))
	}
}

// meshDims factors n into the most square W x H grid.
func meshDims(n int) (int, int) {
	best := 1
	for w := 1; w*w <= n; w++ {
		if n%w == 0 {
			best = w
		}
	}
	return n / best, best
}

// Name implements idc.Interconnect.
func (l *Link) Name() string { return "dimm-link" }

// Counters implements idc.Interconnect.
func (l *Link) Counters() *stats.Counters { return &l.ctrs }

// Networks returns the per-group link networks (for utilization reports).
func (l *Link) Networks() []*noc.Network {
	nets := make([]*noc.Network, len(l.groups))
	for i, g := range l.groups {
		nets[i] = g.net
	}
	return nets
}

func (l *Link) packetize(at sim.Time) sim.Time { return at + packetizeCycles*ctrlCycle }

func (l *Link) decode(at sim.Time) sim.Time { return at + decodeCycles*ctrlCycle }

// sendPacket moves one packet of wire size bytes between two DIMMs of the
// same group and returns its arrival time at dst. link.bytes counts the
// packet only when the DL links carried it all the way; the host fallback
// counts its own bytes.
func (l *Link) sendPacket(at sim.Time, src, dst int, wireBytes int) sim.Time {
	l.tx.Packets.Inc()
	arrive, onLink := l.walk(at, src, dst, wireBytes)
	if onLink {
		l.linkBytes.Add(uint64(wireBytes))
	}
	if l.coll.Active() {
		l.coll.Observe(metrics.HistPacketLat, arrive-at)
		l.coll.Packet(at, "pkt", src, dst, wireBytes)
	}
	return arrive
}

// walk carries one packet from src to dst hop by hop along the group
// network's route and returns its arrival time and whether the DL links
// delivered it. A hop that fails (its link died, or the DLL gave it up)
// re-routes from the node the packet reached; a partitioned group hands
// the packet to the host (hostFallback).
func (l *Link) walk(at sim.Time, src, dst int, wireBytes int) (sim.Time, bool) {
	g := l.groups[l.groupOf[src]]
	t := at
	cur, target := l.nodeOf[src], l.nodeOf[dst]
	// Each failed hop permanently removes a link, so the reroute loop
	// terminates; the bound is pure defense in depth.
	for tries := 0; cur != target; tries++ {
		path, rerouted, err := g.net.RouteAt(t, cur, target)
		if err != nil || tries > 4*g.size {
			return l.hostFallback(t, g.base+cur, dst, wireBytes), false
		}
		if rerouted {
			l.fc.reroutes.Inc()
		}
		for i := 0; i+1 < len(path); i++ {
			arr, ok := l.hop(g, path[i], path[i+1], t, wireBytes)
			t = arr
			if !ok {
				break
			}
			cur = path[i+1]
		}
	}
	return t, true
}

// hop carries one packet across the local link u->v of group g and
// returns its arrival time at v and true, or the time the sender gave up
// and false. With an active fault plan the crossing runs under the DLL;
// otherwise it is one bare crossing, which cannot fail on a route the
// network returned.
func (l *Link) hop(g *group, u, v int, at sim.Time, wire int) (sim.Time, bool) {
	if l.flt != nil {
		return l.dllHop(g, u, v, at, wire)
	}
	arrive, _, err := g.net.HopCrossing(u, v, at, wire)
	if err != nil {
		// Unreachable without fault injection: routes only walk real links.
		panic(err)
	}
	return arrive, true
}

// wireBytesFor returns the on-wire size of a packet carrying payload
// bytes: one header/tail flit plus the payload rounded up to whole flits
// (Packet.WireBytes without materializing a packet).
func wireBytesFor(payload uint32) int {
	return (1 + (int(payload)+FlitBytes-1)/FlitBytes) * FlitBytes
}

// Access implements the hybrid routing mechanism for remote memory access.
func (l *Link) Access(at sim.Time, srcDIMM int, addr uint64, size uint32, write bool) sim.Time {
	dst := l.geo.DIMMOf(addr)
	if dst == srcDIMM {
		panic("core: Access called for a local address")
	}
	if write {
		l.tx.RemoteWrites.Inc()
	} else {
		l.tx.RemoteReads.Inc()
	}
	var done sim.Time
	if l.groupOf[srcDIMM] == l.groupOf[dst] {
		done = l.intraGroupAccess(at, srcDIMM, dst, addr, size, write)
	} else {
		done = l.interGroupAccess(at, srcDIMM, dst, addr, size, write)
	}
	l.coll.Observe(metrics.HistAccessLat, done-at)
	return done
}

// intraGroupAccess routes packets over the DL-Bridge only (Figure 5-a).
func (l *Link) intraGroupAccess(at sim.Time, src, dst int, addr uint64, size uint32, write bool) sim.Time {
	// The NW-Interface allocates a transaction tag first; all tags busy
	// means the transaction waits (the TAG field bounds outstanding DL
	// transactions per DIMM).
	tag, start := l.ctrl[src].AcquireTag(at)
	var done sim.Time
	if write {
		// One write packet per 256-byte chunk; completion when the last
		// chunk is durable in the destination DRAM. Each packet needs Data
		// Buffer space at the destination before the local MC drains it.
		t := start
		off := uint64(0)
		for i, nc := 0, NumChunks(size); i < nc; i++ {
			chunk, chunkOff := ChunkAt(size, i), off
			sendAt := l.packetize(t)
			arrive := l.sendPacket(sendAt, src, dst, wireBytesFor(chunk))
			fin := l.ctrl[dst].HoldData(arrive, wireBytesFor(chunk), func(admit sim.Time) sim.Time {
				return l.dram[dst].Access(l.decode(admit), addr+chunkOff, chunk, true)
			})
			if fin > done {
				done = fin
			}
			t = sendAt // next chunk packetizes back-to-back
			off += uint64(chunk)
		}
	} else {
		// Read: header-only request travels to dst; dst reads its DRAM and
		// packetizes the read-return data (RRD) back, which lands in the
		// source's Data Buffer until the reorder stage consumes it.
		reqAt := l.packetize(start)
		reqArrive := l.sendPacket(reqAt, src, dst, wireBytesFor(0))
		ready := l.ctrl[dst].HoldData(reqArrive, wireBytesFor(0), func(admit sim.Time) sim.Time {
			return l.decode(admit)
		})
		off := uint64(0)
		for i, nc := 0, NumChunks(size); i < nc; i++ {
			chunk := ChunkAt(size, i)
			dataAt := l.dram[dst].Access(ready, addr+off, chunk, false)
			respAt := l.packetize(dataAt)
			arrive := l.sendPacket(respAt, dst, src, wireBytesFor(chunk))
			fin := l.ctrl[src].HoldData(arrive, wireBytesFor(chunk), func(admit sim.Time) sim.Time {
				return l.decode(admit)
			})
			if fin > done {
				done = fin
			}
			off += uint64(chunk)
		}
	}
	l.ctrl[src].ReleaseTag(tag, done)
	return done
}

// registerAtProxy carries a CPU-forwarding request to the group's polling
// proxy over DIMM-Link (Section IV-A) and returns when the host has
// noticed it.
func (l *Link) registerAtProxy(at sim.Time, dimm int) sim.Time {
	g := l.groups[l.groupOf[dimm]]
	t := at
	if dimm != g.master {
		t = l.sendPacket(l.packetize(t), dimm, g.master, wireBytesFor(0))
		t = l.decode(t)
		l.proxyRegs.Inc()
	}
	return l.host.NoticeTime(t, g.master, 1)
}

// wireBytesTotal returns the on-wire size of a whole transfer: payload
// split into maximal DL packets, each with its header/tail flit.
func wireBytesTotal(size uint32) uint32 {
	var total int
	for i, nc := 0, NumChunks(size); i < nc; i++ {
		total += wireBytesFor(ChunkAt(size, i))
	}
	return uint32(total)
}

// crossGroup carries bytes from DIMM src to DIMM dst of another group and
// returns their arrival at dst. Between memory blades (the Section VI
// disaggregated setting) they ride the CXL fabric directly, with no host
// polling and no forwarding thread. Otherwise src registers a forwarding
// request at its group's polling proxy and the host forwards the bytes
// (Figure 5-b); with held set, the packets wait in src's Packet Buffer
// until the host has fetched them.
func (l *Link) crossGroup(at sim.Time, src, dst int, bytes uint32, held bool) sim.Time {
	if l.cfg.InterGroup == ViaCXL {
		return l.cxlSend(at, l.groupOf[src], l.groupOf[dst], bytes)
	}
	forward := func(admit sim.Time) sim.Time {
		return l.host.Forward(l.registerAtProxy(admit, src), src, dst, bytes)
	}
	if held {
		return l.ctrl[src].HoldPacket(at, int(bytes), forward)
	}
	return forward(at)
}

// interGroupAccess carries a remote access across groups (crossGroup). On
// the host path the host drains a DIMM's whole packet-buffer backlog per
// forwarding episode (one notice and one load/store pass moves every
// waiting packet), so a multi-packet transfer pays the notice and
// forwarding latency once, plus bus time for all packets.
func (l *Link) interGroupAccess(at sim.Time, src, dst int, addr uint64, size uint32, write bool) sim.Time {
	pkts := uint64(NumChunks(size))
	l.tx.Packets.Add(pkts)
	l.interGroup.Inc()
	tag, start := l.ctrl[src].AcquireTag(at)
	var done sim.Time
	if write {
		delivered := l.crossGroup(l.packetize(start), src, dst, wireBytesTotal(size), true)
		done = l.ctrl[dst].HoldData(delivered, int(wireBytesTotal(size)), func(admit sim.Time) sim.Time {
			return l.dram[dst].Access(l.decode(admit), addr, size, true)
		})
	} else {
		// Read: carry the request packet, read remote DRAM, then carry the
		// response back (on the host path the destination registers a
		// forwarding request at its own proxy).
		reqDelivered := l.crossGroup(l.packetize(start), src, dst, uint32(wireBytesFor(0)), true)
		ready := l.decode(reqDelivered)
		dataAt := l.dram[dst].Access(ready, addr, size, false)
		respDelivered := l.crossGroup(l.packetize(dataAt), dst, src, wireBytesTotal(size), true)
		done = l.decode(respDelivered)
	}
	l.ctrl[src].ReleaseTag(tag, done)
	return done
}

// Broadcast implements intra- and inter-group broadcast (Figure 5-c/d).
func (l *Link) Broadcast(at sim.Time, srcDIMM int, addr uint64, size uint32) sim.Time {
	l.tx.Broadcasts.Inc()
	srcGroup := l.groupOf[srcDIMM]
	last := l.broadcastWithin(at, srcDIMM, size)
	for gi, g := range l.groups {
		if gi == srcGroup {
			continue
		}
		// Phase 1: inter-group P2P to the remote group's master (one
		// host-forwarding episode — or one CXL hop — for the whole payload).
		entry := l.decode(l.crossGroup(l.packetize(at), srcDIMM, g.master, wireBytesTotal(size), false))
		// Phase 2: intra-group broadcast from the master.
		if fin := l.broadcastWithin(entry, g.master, size); fin > last {
			last = fin
		}
	}
	return last
}

// broadcastWithin floods size bytes from src to every DIMM of its group and
// returns the time the last DIMM has decoded the final chunk. Chunks
// flood a spanning tree over links alive at injection time, one hop per
// tree edge; nodes severed from the source (or stranded by a link dying
// mid-broadcast) receive their copy over the host fallback instead.
func (l *Link) broadcastWithin(at sim.Time, src int, size uint32) sim.Time {
	g := l.groups[l.groupOf[src]]
	if g.size == 1 {
		return at
	}
	srcNode := l.nodeOf[src]
	t := at
	var last sim.Time
	for ci, nc := 0, NumChunks(size); ci < nc; ci++ {
		sendAt := l.packetize(t)
		wire := wireBytesFor(ChunkAt(size, ci))
		parent, order, unreachable := g.net.BroadcastPlanAt(sendAt, srcNode)
		// The scratch slice never escapes this loop body.
		arrivals := l.bcScratch.zeroed(g.size)
		arrivals[srcNode] = sendAt
		delivered := 0
		for _, node := range order[1:] {
			arr, ok := l.hop(g, parent[node], node, arrivals[parent[node]], wire)
			if !ok {
				// The tree edge died mid-broadcast; this node still gets
				// its copy, via the host. Its subtree keeps flooding from
				// here over surviving links.
				arr = l.hostFallback(arr, g.base+parent[node], g.base+node, wire)
			} else {
				delivered++
			}
			arrivals[node] = arr
			last = max(last, arr)
		}
		for _, node := range unreachable {
			last = max(last, l.hostFallback(sendAt, src, g.base+node, wire))
		}
		l.linkBytes.Add(uint64(wire * delivered))
		l.tx.Packets.Inc()
		t = sendAt
	}
	return l.decode(last)
}

// Barrier implements idc.Interconnect: hierarchical (default) or
// centralized synchronization over DIMM-Link. The centralized scheme is
// the baselines' idc.CentralizedBarrier with its sync messages carried
// over DL links (host or CXL between groups) — the DIMM-Link-Central
// configuration of Figure 14.
func (l *Link) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	l.tx.Barriers.Inc()
	if l.cfg.Sync == SyncCentralized {
		syncWire := wireBytesFor(0)
		return idc.CentralizedBarrier(arrivals, threadDIMM, func(at sim.Time, src, dst int) sim.Time {
			return l.syncMessage(at, src, dst, syncWire)
		})
	}
	return l.hierBarrier(arrivals, threadDIMM)
}

// hierBarrier: threads -> DIMM master core -> group master DIMM -> global
// master, then release in reverse (Section III-D).
func (l *Link) hierBarrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	// Level 1: per-DIMM aggregation at the local master core. Indexed by
	// DIMM (0 = no thread arrived there) so that level 2 visits masters in
	// DIMM order: their sync packets contend for shared links, and the
	// serialization order must not depend on iteration order.
	dimmDone := make([]sim.Time, len(l.groupOf))
	for i, a := range arrivals {
		d := threadDIMM[i]
		t := a + idc.IntraDIMMSyncCost
		if t > dimmDone[d] {
			dimmDone[d] = t
		}
	}
	// Level 2: DIMM masters send aggregated messages to the group master.
	syncWire := wireBytesFor(0)
	groupDone := make([]sim.Time, len(l.groups))
	for d, t := range dimmDone {
		if t == 0 {
			continue
		}
		g := l.groups[l.groupOf[d]]
		arrive := t
		if d != g.master {
			arrive = l.decode(l.sendPacket(l.packetize(t), d, g.master, syncWire))
			l.tx.SyncMsgs.Inc()
		}
		if arrive > groupDone[l.groupOf[d]] {
			groupDone[l.groupOf[d]] = arrive
		}
	}
	// Level 3: group masters coordinate through the host (inter-group).
	global := sim.Time(0)
	activeGroups := 0
	for _, t := range groupDone {
		if t > 0 {
			activeGroups++
		}
		if t > global {
			global = t
		}
	}
	if activeGroups > 1 {
		// Each non-root master forwards its aggregate to the root master
		// (via the host, or directly over CXL in the disaggregated
		// setting); the root replies with the release.
		root := 0
		for gi, t := range groupDone {
			if gi == root || t == 0 {
				continue
			}
			l.tx.SyncMsgs.Inc()
			if d := l.interGroupMessage(t, l.groups[gi].master, l.groups[root].master, syncWire); d > global {
				global = d
			}
		}
		// Release back to each remote group master.
		release := global
		for gi, t := range groupDone {
			if gi == root || t == 0 {
				continue
			}
			l.tx.SyncMsgs.Inc()
			if d := l.interGroupMessage(global, l.groups[root].master, l.groups[gi].master, syncWire); d > release {
				release = d
			}
		}
		global = release
	}
	// Release: group masters broadcast over DIMM-Link, then the local
	// masters release their threads.
	release := global
	for gi, t := range groupDone {
		if t == 0 {
			continue
		}
		fin := l.broadcastWithin(global, l.groups[gi].master, 0)
		if fin > release {
			release = fin
		}
	}
	return release + idc.IntraDIMMSyncCost
}

// Distance estimates the communication cost between DIMMs j and k in
// nanoseconds — the dist(j,k) of Algorithm 1, which the paper derives "from
// profiling the latency between each pair of DIMMs". Intra-group pairs cost
// per-hop link latency; inter-group pairs cost the expected host-forwarding
// round (half a polling interval plus the forward itself).
func (l *Link) Distance(j, k int) float64 {
	if j == k {
		return 0
	}
	if l.groupOf[j] == l.groupOf[k] {
		g := l.groups[l.groupOf[j]]
		hops := len(g.net.Topology().Route(l.nodeOf[j], l.nodeOf[k])) - 1
		hopLat := float64(noc.HopRelay) / 1000.0
		ser := 80.0 / l.cfg.Link.BytesPerSec * 1e9 // ~80B packet serialization, ns
		return float64(hops) * (hopLat + ser)
	}
	expectedNotice := float64(host.PollInterval) / 2000.0 // ns
	if l.host.Mode().Interrupting() {
		expectedNotice = float64(host.InterruptLatency) / 1000.0
	}
	fwd := float64(host.FwdLatency)/1000.0 + 2*80.0/host.ChannelBytesPerSec*1e9
	return expectedNotice + fwd
}

// syncMessage carries one sync packet between arbitrary DIMMs using the
// hybrid routing (link when intra-group, host or CXL otherwise).
func (l *Link) syncMessage(at sim.Time, src, dst int, wire int) sim.Time {
	l.tx.SyncMsgs.Inc()
	if l.groupOf[src] == l.groupOf[dst] {
		return l.decode(l.sendPacket(l.packetize(at), src, dst, wire))
	}
	return l.interGroupMessage(at, src, dst, wire)
}

// interGroupMessage carries one small packet across groups.
func (l *Link) interGroupMessage(at sim.Time, src, dst int, wire int) sim.Time {
	return l.decode(l.crossGroup(l.packetize(at), src, dst, uint32(wire), false))
}

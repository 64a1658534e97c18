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

// CXLConfig parameterizes the inter-blade fabric of the disaggregated
// setting.
type CXLConfig struct {
	BytesPerSec   float64  // per-port bandwidth, full duplex
	PortLatency   sim.Time // blade egress/ingress port crossing
	SwitchLatency sim.Time // switch traversal
}

// DefaultCXLConfig returns CXL-class numbers: a x8 port at 32 GB/s and a
// ~600 ns blade-to-blade load path.
func DefaultCXLConfig() CXLConfig {
	return CXLConfig{
		BytesPerSec:   32e9,
		PortLatency:   150 * sim.Nanosecond,
		SwitchLatency: 300 * sim.Nanosecond,
	}
}

// Config parameterizes the DIMM-Link interconnect.
type Config struct {
	Link      noc.LinkConfig // SerDes link parameters (GRS defaults)
	Topology  TopologyKind
	NumGroups int // DL groups; DIMMs are split contiguously

	// Controller sizes the per-DIMM DL-Controller resources (tags and
	// buffers, Figure 6).
	Controller ControllerConfig

	// InterGroup selects host forwarding (default) or the disaggregated
	// CXL fabric; CXL parameterizes the latter.
	InterGroup InterGroupTransport
	CXL        CXLConfig

	// ControllerHz is the DL-Controller clock. PacketizeCycles and
	// DecodeCycles are the NW-Interface costs measured on the prototype
	// ("the packet generation/decoding can finish in 18 cycles" without
	// CRC; the ASIC CRC adds a couple of pipelined cycles).
	ControllerHz    float64
	PacketizeCycles uint64
	DecodeCycles    uint64

	// Sync selects hierarchical or centralized synchronization.
	Sync SyncMode
	// IntraDIMMSyncCost is the per-thread cost of aggregating arrivals at
	// the DIMM's master core (shared-buffer message passing).
	IntraDIMMSyncCost sim.Time

	// ErrorEvery injects a CRC error (and thus a DLL retry) on every Nth
	// packet; zero disables injection. Used by the DLL-layer ablation.
	ErrorEvery uint64

	// Fault optionally injects link faults (bit errors, stalls, permanent
	// link-down, degraded lanes; see internal/fault). A nil or inactive
	// plan leaves the simulator on the exact perfect-link code path, so
	// its output stays byte-identical to a run without fault support.
	// When the plan is active the DL-Controllers run the full DLL of
	// dll.go (replay buffer, ACK/NAK, sequence window), whose cost lands
	// in the timeline even for crossings that never fault.
	Fault *fault.Plan

	// DLL sizes the per-link retry/replay machinery exercised when Fault
	// is active.
	DLL DLLConfig

	// Metrics optionally attaches the observability layer (latency
	// histograms, per-link utilization probes, event tracing; see
	// internal/metrics). Observation is passive — it never schedules
	// events or reserves simulated resources — so a nil collector (the
	// default) and an attached one produce timing-identical simulations.
	Metrics *metrics.Collector
}

// DefaultConfig returns the paper's evaluated configuration: GRS links at
// 25 GB/s, chain topology, 2.5 GHz controller, 20-cycle packetization
// (18 cycles plus the pipelined CRC), hierarchical synchronization.
func DefaultConfig(numGroups int) Config {
	return Config{
		Link:              noc.GRSLink(),
		Topology:          TopoChain,
		NumGroups:         numGroups,
		Controller:        DefaultControllerConfig(),
		InterGroup:        ViaHost,
		CXL:               DefaultCXLConfig(),
		ControllerHz:      2.5e9,
		PacketizeCycles:   20,
		DecodeCycles:      20,
		Sync:              SyncHierarchical,
		IntraDIMMSyncCost: 20 * sim.Nanosecond,
		DLL:               DefaultDLLConfig(),
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

// arrivalScratch is the reusable arrival buffer of the fault-path
// broadcast flood. It grows to the largest group ever flooded and is
// reused across chunks and calls.
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
	eng  *sim.Engine
	geo  mem.Geometry
	cfg  Config
	dram []*dram.Module
	host *host.Host

	ctrlPeriod sim.Time // one DL-Controller cycle (cfg.ControllerHz)

	groups   []*group
	groupOf  []int // DIMM -> group index
	nodeOf   []int // DIMM -> node index within its group
	ctrl     []*Controller
	ctrs     stats.Counters
	pktCount uint64 // for deterministic error injection

	// Handles into ctrs, registered once in NewLink.
	tx                                                  idc.TxCounters
	linkBytes, retries, proxyRegs, cxlBytes, interGroup *stats.Counter
	fc                                                  faultCounters

	// flt is the per-run fault state; nil means the perfect physical
	// layer (the fast path through sendPacket/broadcastWithin).
	flt *fault.Injector

	// bcScratch is the fault path's broadcast arrival buffer.
	bcScratch arrivalScratch
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

// NewLink builds a DIMM-Link interconnect over the system's DIMMs and
// creates the host model with the polling-proxy targets (the group masters)
// when hostCfg uses a proxy mode, or all DIMMs otherwise. It rejects a
// DIMM count the groups or the packet format cannot hold, and a fault
// event on a DIMM pair that is not a link of the built topology.
func NewLink(eng *sim.Engine, geo mem.Geometry, modules []*dram.Module, hostCfg host.Config, cfg Config) (*Link, error) {
	if cfg.NumGroups <= 0 {
		cfg.NumGroups = GroupsFor(geo.NumDIMMs)
	}
	if geo.NumDIMMs%cfg.NumGroups != 0 {
		return nil, fmt.Errorf("core: %d DIMMs not divisible into %d groups", geo.NumDIMMs, cfg.NumGroups)
	}
	if geo.NumDIMMs > MaxDIMMs {
		return nil, fmt.Errorf("core: %d DIMMs exceed the %d-DIMM SRC/DST field", geo.NumDIMMs, MaxDIMMs)
	}
	l := &Link{
		eng:        eng,
		geo:        geo,
		cfg:        cfg,
		dram:       modules,
		ctrlPeriod: sim.Period(cfg.ControllerHz),
		groupOf:    make([]int, geo.NumDIMMs),
		nodeOf:     make([]int, geo.NumDIMMs),
	}
	l.tx = idc.NewTxCounters(&l.ctrs)
	l.linkBytes = l.ctrs.Handle(idc.CtrLinkBytes)
	l.retries = l.ctrs.Handle(idc.CtrRetries)
	l.proxyRegs = l.ctrs.Handle(idc.CtrProxyRegs)
	l.cxlBytes = l.ctrs.Handle(idc.CtrCXLBytes)
	l.interGroup = l.ctrs.Handle(idc.CtrInterGroup)
	l.fc = newFaultCounters(&l.ctrs)
	l.flt = fault.NewInjector(cfg.Fault)
	if l.flt != nil {
		l.cfg.DLL = l.cfg.DLL.withDefaults()
	}
	per := geo.NumDIMMs / cfg.NumGroups
	var proxies []int
	for g := 0; g < cfg.NumGroups; g++ {
		gr := &group{base: g * per, size: per}
		gr.net = noc.NewNetwork(buildTopology(cfg.Topology, per), cfg.Link)
		gr.net.SetMetrics(cfg.Metrics)
		if l.flt != nil {
			gids := make([]int, per)
			for i := range gids {
				gids[i] = gr.base + i
			}
			gr.net.SetFaults(l.flt, gids)
			gr.dllCh = make(map[[2]int]*dllChan)
		}
		// "We heuristically select the DIMM at the middle of each group as
		// the master" — and the master doubles as the polling proxy.
		gr.master = gr.base + (per-1)/2
		l.groups = append(l.groups, gr)
		proxies = append(proxies, gr.master)
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
		l.ctrl[d] = NewController(d, cfg.Controller)
	}
	targets := proxies
	if hostCfg.Mode == host.BasePolling || hostCfg.Mode == host.BaseInterrupt {
		targets = make([]int, geo.NumDIMMs)
		for i := range targets {
			targets[i] = i
		}
	}
	if cfg.InterGroup == ViaCXL {
		// Disaggregated blades: the host never polls; inter-blade traffic
		// uses the CXL fabric.
		targets = nil
	}
	l.host = host.New(eng, geo, hostCfg, targets)
	l.host.SetMetrics(cfg.Metrics)
	return l, nil
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
	dur := sim.TransferTime(uint64(bytes), l.cfg.CXL.BytesPerSec)
	_, egEnd := l.groups[srcGroup].egress.Reserve(at, dur)
	arrive := egEnd + l.cfg.CXL.PortLatency + l.cfg.CXL.SwitchLatency
	_, inEnd := l.groups[dstGroup].ingress.Reserve(arrive, dur)
	l.cxlBytes.Add(uint64(bytes))
	return inEnd + l.cfg.CXL.PortLatency
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

// Host returns the host model (for bus-occupation reporting).
func (l *Link) Host() *host.Host { return l.host }

// Networks returns the per-group link networks (for utilization reports).
func (l *Link) Networks() []*noc.Network {
	nets := make([]*noc.Network, len(l.groups))
	for i, g := range l.groups {
		nets[i] = g.net
	}
	return nets
}

// Stop halts background activity (the host polling loop).
func (l *Link) Stop() { l.host.Stop() }

func (l *Link) ctrlCycles(n uint64) sim.Time {
	return sim.Cycles(n, l.ctrlPeriod)
}

func (l *Link) packetize(at sim.Time) sim.Time {
	return at + l.ctrlCycles(l.cfg.PacketizeCycles)
}

func (l *Link) decode(at sim.Time) sim.Time {
	return at + l.ctrlCycles(l.cfg.DecodeCycles)
}

// retryTimeout is the DLL retransmission timer: the source re-sends a
// packet whose ACK has not returned within this window (a few worst-case
// group round trips).
const retryTimeout = 200 * sim.Nanosecond

// sendPacket moves one packet of wire size bytes between two DIMMs of the
// same group, including deterministic CRC-error retries when configured.
// It returns the arrival time of the (good) packet at dst.
func (l *Link) sendPacket(at sim.Time, src, dst int, wireBytes int) sim.Time {
	if l.flt != nil {
		return l.sendPacketFI(at, src, dst, wireBytes)
	}
	g := l.groups[l.groupOf[src]]
	t := at
	for {
		arrive, _, err := g.net.Send(t, l.nodeOf[src], l.nodeOf[dst], wireBytes)
		if err != nil {
			// Unreachable without fault injection: shipped topologies are
			// connected and static routes only walk real links.
			panic(err)
		}
		l.linkBytes.Add(uint64(wireBytes))
		l.tx.Packets.Inc()
		l.pktCount++
		if l.cfg.ErrorEvery == 0 || l.pktCount%l.cfg.ErrorEvery != 0 {
			if l.cfg.Metrics.Active() {
				l.cfg.Metrics.Observe(metrics.HistPacketLat, arrive-at)
				l.cfg.Metrics.Packet(at, "pkt", src, dst, wireBytes)
			}
			return arrive
		}
		// CRC failure at dst: no ACK returns; the source retransmits after
		// a fixed retry timeout sized to a few worst-case round trips.
		l.retries.Inc()
		l.cfg.Metrics.Observe(metrics.HistDLLRetry, retryTimeout)
		t = arrive + retryTimeout
	}
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
	l.cfg.Metrics.Observe(metrics.HistAccessLat, done-at)
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

// interGroupAccess forwards packets through the host CPU (Figure 5-b),
// using the polling proxy to get noticed. The host drains a DIMM's whole
// packet-buffer backlog per forwarding episode (one notice and one
// load/store pass moves every waiting packet), so a multi-packet transfer
// pays the notice and forwarding latency once, plus bus time for all
// packets.
func (l *Link) interGroupAccess(at sim.Time, src, dst int, addr uint64, size uint32, write bool) sim.Time {
	pkts := uint64(NumChunks(size))
	l.tx.Packets.Add(pkts)
	l.interGroup.Inc()
	if l.cfg.InterGroup == ViaCXL {
		return l.interBladeAccess(at, src, dst, addr, size, write)
	}
	tag, start := l.ctrl[src].AcquireTag(at)
	var done sim.Time
	if write {
		// The outgoing packets wait in the source's Packet Buffer until the
		// host has fetched them.
		delivered := l.ctrl[src].HoldPacket(l.packetize(start), int(wireBytesTotal(size)),
			func(admit sim.Time) sim.Time {
				noticed := l.registerAtProxy(admit, src)
				return l.host.Forward(noticed, src, dst, wireBytesTotal(size))
			})
		done = l.ctrl[dst].HoldData(delivered, int(wireBytesTotal(size)), func(admit sim.Time) sim.Time {
			return l.dram[dst].Access(l.decode(admit), addr, size, true)
		})
	} else {
		// Read: forward the request packet, read remote DRAM, then the
		// response needs the host again (the destination registers a
		// forwarding request at its own proxy).
		reqDelivered := l.ctrl[src].HoldPacket(l.packetize(start), wireBytesFor(0),
			func(admit sim.Time) sim.Time {
				noticed := l.registerAtProxy(admit, src)
				return l.host.Forward(noticed, src, dst, uint32(wireBytesFor(0)))
			})
		ready := l.decode(reqDelivered)
		dataAt := l.dram[dst].Access(ready, addr, size, false)
		respDelivered := l.ctrl[dst].HoldPacket(l.packetize(dataAt), int(wireBytesTotal(size)),
			func(admit sim.Time) sim.Time {
				noticed := l.registerAtProxy(admit, dst)
				return l.host.Forward(noticed, dst, src, wireBytesTotal(size))
			})
		done = l.decode(respDelivered)
	}
	l.ctrl[src].ReleaseTag(tag, done)
	return done
}

// interBladeAccess is the Section VI disaggregated-memory path: the groups
// are memory blades and cross-blade packets ride the CXL fabric directly —
// no host polling, no forwarding thread.
func (l *Link) interBladeAccess(at sim.Time, src, dst int, addr uint64, size uint32, write bool) sim.Time {
	sg, dg := l.groupOf[src], l.groupOf[dst]
	tag, start := l.ctrl[src].AcquireTag(at)
	var done sim.Time
	if write {
		arrive := l.cxlSend(l.packetize(start), sg, dg, wireBytesTotal(size))
		done = l.ctrl[dst].HoldData(arrive, int(wireBytesTotal(size)), func(admit sim.Time) sim.Time {
			return l.dram[dst].Access(l.decode(admit), addr, size, true)
		})
	} else {
		reqArrive := l.cxlSend(l.packetize(start), sg, dg, uint32(wireBytesFor(0)))
		ready := l.decode(reqArrive)
		dataAt := l.dram[dst].Access(ready, addr, size, false)
		respArrive := l.cxlSend(l.packetize(dataAt), dg, sg, wireBytesTotal(size))
		done = l.decode(respArrive)
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
		var delivered sim.Time
		if l.cfg.InterGroup == ViaCXL {
			delivered = l.cxlSend(l.packetize(at), srcGroup, gi, wireBytesTotal(size))
		} else {
			noticed := l.registerAtProxy(l.packetize(at), srcDIMM)
			delivered = l.host.Forward(noticed, srcDIMM, g.master, wireBytesTotal(size))
		}
		entry := l.decode(delivered)
		// Phase 2: intra-group broadcast from the master.
		if fin := l.broadcastWithin(entry, g.master, size); fin > last {
			last = fin
		}
	}
	return last
}

// broadcastWithin floods size bytes from src to every DIMM of its group and
// returns the time the last DIMM has decoded the final chunk.
func (l *Link) broadcastWithin(at sim.Time, src int, size uint32) sim.Time {
	if l.flt != nil {
		return l.broadcastWithinFI(at, src, size)
	}
	g := l.groups[l.groupOf[src]]
	if g.size == 1 {
		return at
	}
	t := at
	var last sim.Time
	for i, nc := 0, NumChunks(size); i < nc; i++ {
		sendAt := l.packetize(t)
		wire := wireBytesFor(ChunkAt(size, i))
		_, fin, err := g.net.Broadcast(sendAt, l.nodeOf[src], wire)
		if err != nil {
			// Unreachable without fault injection (connected topology).
			panic(err)
		}
		l.linkBytes.Add(uint64(wire * (g.size - 1)))
		l.tx.Packets.Inc()
		if d := l.decode(fin); d > last {
			last = d
		}
		t = sendAt
	}
	return last
}

// Barrier implements idc.Interconnect: hierarchical (default) or
// centralized synchronization over DIMM-Link.
func (l *Link) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	l.tx.Barriers.Inc()
	if l.cfg.Sync == SyncCentralized {
		return l.centralBarrier(arrivals, threadDIMM)
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
		t := a + l.cfg.IntraDIMMSyncCost
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
	return release + l.cfg.IntraDIMMSyncCost
}

// centralBarrier: every thread messages a master core on one central DIMM
// (0) and waits for its individual release — the DIMM-Link-Central baseline
// of Figure 14 (no hierarchical aggregation).
func (l *Link) centralBarrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	const central = 0
	syncWire := wireBytesFor(0)
	var global sim.Time
	for i, a := range arrivals {
		d := threadDIMM[i]
		// Every thread pays the intra-DIMM hand-off to its master core
		// first; remote masters then launch the sync packet.
		arrive := a + l.cfg.IntraDIMMSyncCost
		if d != central {
			arrive = l.syncMessage(a+l.cfg.IntraDIMMSyncCost, d, central, syncWire)
		}
		if arrive > global {
			global = arrive
		}
	}
	release := global
	for i := range arrivals {
		d := threadDIMM[i]
		if d == central {
			continue
		}
		if fin := l.syncMessage(global, central, d, syncWire); fin > release {
			release = fin
		}
	}
	return release + l.cfg.IntraDIMMSyncCost
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
		hopLat := float64(l.cfg.Link.WireLatency+l.cfg.Link.RouterLatency) / 1000.0
		ser := 80.0 / l.cfg.Link.BytesPerSec * 1e9 // ~80B packet serialization, ns
		return float64(hops) * (hopLat + ser)
	}
	hostCfg := l.host.Config()
	expectedNotice := float64(hostCfg.PollInterval) / 2000.0 // ns
	if hostCfg.Mode.Interrupting() {
		expectedNotice = float64(hostCfg.InterruptLatency) / 1000.0
	}
	fwd := float64(hostCfg.FwdLatency)/1000.0 + 2*80.0/hostCfg.ChannelBytesPerSec*1e9
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

// interGroupMessage carries one small packet across groups using the
// configured transport.
func (l *Link) interGroupMessage(at sim.Time, src, dst int, wire int) sim.Time {
	if l.cfg.InterGroup == ViaCXL {
		return l.decode(l.cxlSend(l.packetize(at), l.groupOf[src], l.groupOf[dst], uint32(wire)))
	}
	noticed := l.registerAtProxy(l.packetize(at), src)
	return l.decode(l.host.Forward(noticed, src, dst, uint32(wire)))
}

// Package idc defines the inter-DIMM communication (IDC) abstraction that
// the NMP system is assembled around, plus the three baseline mechanisms
// the paper compares against (Table I):
//
//   - MCN-style CPU forwarding (mcn.go) — the host CPU polls the DIMMs and
//     copies data between channels through its cache hierarchy.
//   - AIM's dedicated multi-drop bus (aim.go) — DIMMs communicate over one
//     shared bus without host involvement.
//   - ABC-DIMM's intra-channel broadcast (abc.go) — the host issues
//     broadcast-read commands inside a channel; cross-channel traffic falls
//     back to CPU forwarding.
//
// The DIMM-Link mechanism itself lives in internal/core and implements the
// same Interconnect interface.
package idc

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Interconnect is one inter-DIMM communication mechanism. All times are
// absolute simulated times; implementations reserve the shared resources
// they occupy (host channel buses, dedicated buses, SerDes links,
// destination DRAM) so that concurrent traffic contends realistically.
//
// Implementations are not goroutine-safe; the single-threaded simulation
// engine serializes all calls in simulated-time order.
type Interconnect interface {
	// Name identifies the mechanism in reports ("dimm-link", "mcn", ...).
	Name() string

	// Access performs a remote read or write of size bytes at addr, issued
	// by a core on srcDIMM at time at. It returns the completion time as
	// observed by the source: for reads, when the data has arrived back at
	// srcDIMM; for writes, when the data is durable in the destination's
	// DRAM.
	Access(at sim.Time, srcDIMM int, addr uint64, size uint32, write bool) sim.Time

	// Broadcast delivers size bytes starting at addr (resident on srcDIMM)
	// to every other DIMM. It returns the time the last DIMM has received
	// the data.
	Broadcast(at sim.Time, srcDIMM int, addr uint64, size uint32) sim.Time

	// Barrier synchronizes the given threads: arrivals[i] is when thread i
	// reached the barrier and threadDIMM[i] is its home DIMM (-1 for host
	// threads). It returns the common release time.
	Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time

	// Counters exposes the mechanism's activity counters (packets, bytes on
	// each medium, polls, forwards) for reporting and the energy model.
	Counters() *stats.Counters
}

// Counter names shared across mechanisms, consumed by the energy model and
// the experiment reports.
const (
	CtrLinkBytes    = "link.bytes"      // bytes traversing SerDes links (per hop)
	CtrBusBytes     = "hostbus.bytes"   // bytes moved over host memory channels
	CtrDedBusBytes  = "dedbus.bytes"    // bytes on AIM's dedicated bus
	CtrForwards     = "host.forwards"   // packets forwarded by the host CPU
	CtrPolls        = "host.polls"      // polling register reads issued by the host
	CtrPackets      = "packets"         // IDC packets injected
	CtrRemoteReads  = "remote.reads"    // remote read transactions
	CtrRemoteWrites = "remote.writes"   // remote write transactions
	CtrBroadcasts   = "broadcasts"      // broadcast transactions
	CtrBarriers     = "barriers"        // barrier episodes
	CtrSyncMsgs     = "sync.messages"   // synchronization messages exchanged
	CtrRetries      = "link.retries"    // DLL-layer retransmissions
	CtrFwdedBytes   = "fwd.bytes"       // bytes that crossed the host on behalf of IDC
	CtrBcastXfers   = "bcast.transfers" // transport transactions carrying a broadcast payload

	// DIMM-Link-specific transport counters (internal/core uses the same
	// constants so that reports and tests see one taxonomy).
	CtrProxyRegs  = "proxy.registrations" // remote requests registered at a polling proxy
	CtrInterGroup = "intergroup.accesses" // accesses that crossed a DL group boundary
	CtrCXLBytes   = "cxl.bytes"           // bytes carried over the inter-blade CXL path

	// Collective-operation counters (the Collectives scheduler layers these
	// on top of whatever transport counters the mechanism itself records).
	CtrCollectives = "collectives"      // collective episodes executed
	CtrCollSteps   = "collective.steps" // algorithm rounds across all episodes
	CtrCollBytes   = "collective.bytes" // payload bytes handed to collectives

	// Fault-injection counters (populated only when a fault plan is active;
	// see internal/fault and the core DLL).
	CtrFaultCorrupted = "fault.corrupted"        // crossings delivered CRC-broken (NAKed)
	CtrFaultReplays   = "fault.replays"          // replay-buffer retransmissions after a NAK
	CtrFaultTimeouts  = "fault.timeouts"         // retransmissions after an ACK timeout
	CtrFaultReroutes  = "fault.reroutes"         // packets routed around a dead link
	CtrFaultLinkDown  = "fault.linkdown"         // links declared dead by retry exhaustion
	CtrFaultFallback  = "fault.fallback.packets" // packets forced onto the host-forwarding fallback
	CtrFaultFallbackB = "fault.fallback.bytes"   // bytes carried by the fallback path
)

// TxCounters holds handles to the transaction counters every mechanism
// bumps on its per-access path, registered once at construction so a
// bump is a pointer increment rather than a name lookup.
type TxCounters struct {
	Packets, RemoteReads, RemoteWrites         *stats.Counter
	Broadcasts, BcastXfers, Barriers, SyncMsgs *stats.Counter
}

// NewTxCounters registers the TxCounters handles in c.
func NewTxCounters(c *stats.Counters) TxCounters {
	return TxCounters{
		Packets:      c.Handle(CtrPackets),
		RemoteReads:  c.Handle(CtrRemoteReads),
		RemoteWrites: c.Handle(CtrRemoteWrites),
		Broadcasts:   c.Handle(CtrBroadcasts),
		BcastXfers:   c.Handle(CtrBcastXfers),
		Barriers:     c.Handle(CtrBarriers),
		SyncMsgs:     c.Handle(CtrSyncMsgs),
	}
}

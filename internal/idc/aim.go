package idc

import (
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AIM models the dedicated-bus IDC of AIM (Table I, column 3): all DIMMs
// hang off one extra multi-drop bus and communicate without the host. The
// NMP cores snoop commands on the bus, so there is no polling; the cost is
// that every transfer occupies the single shared bus, so the per-DIMM
// bandwidth is beta / #DIMM under contention — which is exactly the
// scaling limitation the paper demonstrates.
//
// The paper (and we) assume the dedicated bus has the same bandwidth as a
// memory channel and, for AIM-BC, that a broadcast delivers to every DIMM
// in one bus transaction.
type AIM struct {
	geo  mem.Geometry
	dram []*dram.Module
	bus  sim.BusyLine
	ctrs stats.Counters
	tx   TxCounters

	dedBusBytes *stats.Counter
}

// The dedicated bus of the evaluation has memory-channel bandwidth, and
// each transaction pays a short arbitration phase.
const (
	// aimBusBytesPerSec is the dedicated-bus bandwidth (beta).
	aimBusBytesPerSec = 25.6e9
	// aimCmdCost is the command/arbitration phase per transaction:
	// arbitration plus driver turnaround. On a multi-drop bus every
	// transaction switches drivers, and high-frequency multi-drop
	// signaling needs long turnaround windows — part of why the paper
	// deems such buses impractical for DDR4/DDR5.
	aimCmdCost = 25 * sim.Nanosecond
)

// NewAIM builds the mechanism.
func NewAIM(geo mem.Geometry, modules []*dram.Module) *AIM {
	a := &AIM{geo: geo, dram: modules}
	a.tx = NewTxCounters(&a.ctrs)
	a.dedBusBytes = a.ctrs.Handle(CtrDedBusBytes)
	return a
}

// Name implements Interconnect.
func (a *AIM) Name() string { return "aim" }

// Counters implements Interconnect.
func (a *AIM) Counters() *stats.Counters { return &a.ctrs }

// busTransfer occupies the dedicated bus for a command phase plus the data
// transfer, returning the completion time.
func (a *AIM) busTransfer(at sim.Time, size uint32) sim.Time {
	dur := aimCmdCost + sim.TransferTime(uint64(size), aimBusBytesPerSec)
	_, end := a.bus.Reserve(at, dur)
	a.dedBusBytes.Add(uint64(size))
	return end
}

// Access implements Interconnect: the requester broadcasts the command on
// the bus; the owner snoops it, accesses its DRAM, and for reads puts the
// data back on the bus.
func (a *AIM) Access(at sim.Time, srcDIMM int, addr uint64, size uint32, write bool) sim.Time {
	dst := a.geo.DIMMOf(addr)
	if dst == srcDIMM {
		panic("idc: AIM.Access called for a local address")
	}
	a.tx.Packets.Inc()
	if write {
		a.tx.RemoteWrites.Inc()
		// Command + data occupy the bus; the owner then commits to DRAM.
		t := a.busTransfer(at, size)
		return a.dram[dst].Access(t, addr, size, true)
	}
	a.tx.RemoteReads.Inc()
	// Command phase on the bus, DRAM read at the owner, then the data
	// occupies the bus on its way back.
	cmdEnd := a.busTransfer(at, 0)
	dataAt := a.dram[dst].Access(cmdEnd, addr, size, false)
	return a.busTransfer(dataAt, size)
}

// Broadcast implements the AIM-BC variant: a single bus transaction
// delivers the payload to every snooping DIMM at once (the idealized
// behaviour the paper grants AIM in Figure 12).
func (a *AIM) Broadcast(at sim.Time, srcDIMM int, addr uint64, size uint32) sim.Time {
	a.tx.Broadcasts.Inc()
	dataAt := a.dram[srcDIMM].Access(at, addr, size, false)
	a.tx.BcastXfers.Inc()
	return a.busTransfer(dataAt, size)
}

// Barrier implements Interconnect: centralized sync with messages carried
// on the dedicated bus (no host involvement).
func (a *AIM) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	a.tx.Barriers.Inc()
	return CentralizedBarrier(arrivals, threadDIMM,
		func(at sim.Time, src, dst int) sim.Time {
			a.tx.SyncMsgs.Inc()
			return a.busTransfer(at, syncMsgBytes)
		})
}

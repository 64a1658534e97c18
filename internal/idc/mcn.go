package idc

import (
	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// syncMsgBytes is the on-bus size of one synchronization message (a request
// descriptor plus a line transfer).
const syncMsgBytes = 64

// MCN models CPU-forwarding IDC (MCN / UPMEM style): DIMMs register
// requests in memory-mapped registers, the host CPU polls them and copies
// data between DIMMs through its cache hierarchy (Table I, column 1).
//
// Its Broadcast is the MCN-BC variant of Figure 12, where the host writes
// the broadcast payload to every DIMM individually.
type MCN struct {
	geo  mem.Geometry
	dram []*dram.Module
	host *host.Host
	ctrs stats.Counters
	tx   TxCounters
}

// NewMCN builds the mechanism over the host h that polls and forwards
// for it. MCN has no polling proxies, so h polls every DIMM.
func NewMCN(geo mem.Geometry, modules []*dram.Module, h *host.Host) *MCN {
	m := &MCN{geo: geo, dram: modules, host: h}
	m.tx = NewTxCounters(&m.ctrs)
	return m
}

// Name implements Interconnect.
func (m *MCN) Name() string { return "mcn" }

// Counters implements Interconnect.
func (m *MCN) Counters() *stats.Counters { return &m.ctrs }

// notice is when the host discovers a request registered at dimm. For
// Base+Itrpt, the host must scan the whole interrupting channel.
func (m *MCN) notice(at sim.Time, dimm int) sim.Time {
	return m.host.NoticeTime(at, dimm, m.geo.DIMMsPerChannel())
}

// Access implements Interconnect. The host reads the data from the owning
// DIMM over its channel and writes it into the requester's DIMM over the
// other channel — "the data copy occupies the channel twice".
func (m *MCN) Access(at sim.Time, srcDIMM int, addr uint64, size uint32, write bool) sim.Time {
	dst := m.geo.DIMMOf(addr)
	if dst == srcDIMM {
		panic("idc: MCN.Access called for a local address")
	}
	noticed := m.notice(at, srcDIMM)
	m.tx.Packets.Inc()
	if write {
		m.tx.RemoteWrites.Inc()
		// The host CPU copies the payload from the source DIMM's buffer
		// into the destination DIMM — a forwarding episode on the (single)
		// host forwarding thread, occupying both channels.
		t := m.host.Forward(noticed, srcDIMM, dst, size)
		return m.dram[dst].Access(t, addr, size, true)
	}
	m.tx.RemoteReads.Inc()
	// Host loads from the remote DIMM's DRAM, then stores into the
	// requester's DIMM through its cache hierarchy.
	t := m.dram[dst].Access(noticed, addr, size, false)
	return m.host.Forward(t, dst, srcDIMM, size)
}

// Broadcast implements the MCN-BC variant: the host reads the payload once
// from the source and writes it to every other DIMM, one channel transfer
// each.
func (m *MCN) Broadcast(at sim.Time, srcDIMM int, addr uint64, size uint32) sim.Time {
	m.tx.Broadcasts.Inc()
	noticed := m.notice(at, srcDIMM)
	// The host reads the payload once, then replays it to every other DIMM
	// — one serialized forwarding episode per destination (MCN-BC's
	// fundamental cost).
	t := m.dram[srcDIMM].Access(noticed, addr, size, false)
	t = m.host.ReadFrom(t, srcDIMM, size)
	m.tx.BcastXfers.Inc()
	last := t
	for d := 0; d < m.geo.NumDIMMs; d++ {
		if d == srcDIMM {
			continue
		}
		fin := m.host.ForwardCached(t, d, size)
		m.tx.BcastXfers.Inc()
		if fin > last {
			last = fin
		}
	}
	return last
}

// Barrier implements Interconnect via host-forwarded centralized sync: each
// DIMM master's message must be polled and copied by the host.
func (m *MCN) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	m.tx.Barriers.Inc()
	return CentralizedBarrier(arrivals, threadDIMM,
		func(at sim.Time, src, dst int) sim.Time {
			m.tx.SyncMsgs.Inc()
			noticed := m.notice(at, src)
			return m.host.Forward(noticed, src, dst, syncMsgBytes)
		})
}

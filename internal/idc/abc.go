package idc

import (
	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ABCDIMM models ABC-DIMM's intra-channel broadcast (Table I, column 2):
// the host CPU issues customized broadcast-read/write commands so that one
// channel transaction delivers data to every DIMM on that channel. Its
// limits, which the paper exploits, are that DDR4 signal integrity caps the
// DIMMs-per-channel at 2-3, that point-to-point traffic still goes through
// CPU forwarding, and that crossing channels requires the host to replay
// the broadcast on every other channel.
type ABCDIMM struct {
	geo  mem.Geometry
	dram []*dram.Module
	host *host.Host
	ctrs stats.Counters
	tx   TxCounters

	// firstInCh[c] is the lowest DIMM actually populated on channel c, or
	// -1 for an empty channel. Derived from the real layout so that a
	// partially populated last channel (NumDIMMs not a multiple of
	// NumChannels) never aims a broadcast replay at a nonexistent slot.
	firstInCh []int
}

// NewABCDIMM builds the mechanism and its host model (the host polls all
// DIMMs, as in MCN — ABC-DIMM has no proxies).
func NewABCDIMM(eng *sim.Engine, geo mem.Geometry, modules []*dram.Module, hostCfg host.Config) *ABCDIMM {
	if geo.NumDIMMs <= 0 || geo.NumChannels <= 0 {
		panic("idc: ABCDIMM requires at least one DIMM and one channel")
	}
	targets := make([]int, geo.NumDIMMs)
	for i := range targets {
		targets[i] = i
	}
	firstInCh := make([]int, geo.NumChannels)
	for ch := range firstInCh {
		firstInCh[ch] = -1
	}
	for d := 0; d < geo.NumDIMMs; d++ {
		if ch := geo.ChannelOfDIMM(d); firstInCh[ch] < 0 {
			firstInCh[ch] = d
		}
	}
	b := &ABCDIMM{geo: geo, dram: modules,
		host: host.New(eng, geo, hostCfg, targets), firstInCh: firstInCh}
	b.tx = NewTxCounters(&b.ctrs)
	return b
}

// Name implements Interconnect.
func (b *ABCDIMM) Name() string { return "abc-dimm" }

// Counters implements Interconnect.
func (b *ABCDIMM) Counters() *stats.Counters { return &b.ctrs }

// Host returns the host model.
func (b *ABCDIMM) Host() *host.Host { return b.host }

// Stop halts the host polling loop.
func (b *ABCDIMM) Stop() { b.host.Stop() }

func (b *ABCDIMM) notice(at sim.Time, dimm int) sim.Time {
	return b.host.NoticeTime(at, dimm, b.geo.DIMMsPerChannel())
}

// Access implements Interconnect. ABC-DIMM accelerates broadcast only;
// point-to-point communication is plain CPU forwarding.
func (b *ABCDIMM) Access(at sim.Time, srcDIMM int, addr uint64, size uint32, write bool) sim.Time {
	dst := b.geo.DIMMOf(addr)
	if dst == srcDIMM {
		panic("idc: ABCDIMM.Access called for a local address")
	}
	noticed := b.notice(at, srcDIMM)
	b.tx.Packets.Inc()
	if write {
		b.tx.RemoteWrites.Inc()
		t := b.host.Forward(noticed, srcDIMM, dst, size)
		return b.dram[dst].Access(t, addr, size, true)
	}
	b.tx.RemoteReads.Inc()
	t := b.dram[dst].Access(noticed, addr, size, false)
	return b.host.Forward(t, dst, srcDIMM, size)
}

// Broadcast implements Interconnect. Within the source channel, a single
// broadcast-read transaction delivers the payload to all sibling DIMMs; for
// each other channel the host replays the data with one broadcast-write
// transaction, so the cost scales with #channels rather than #DIMMs.
func (b *ABCDIMM) Broadcast(at sim.Time, srcDIMM int, addr uint64, size uint32) sim.Time {
	b.tx.Broadcasts.Inc()
	noticed := b.notice(at, srcDIMM)
	// Broadcast-read on the source channel: DRAM read plus one channel
	// transaction seen by every DIMM on the channel (and by the host).
	t := b.dram[srcDIMM].Access(noticed, addr, size, false)
	_, chEnd := b.host.ChannelAccessStart(t, srcDIMM, size)
	b.tx.BcastXfers.Inc()
	last := chEnd
	// The host now holds the data; replay one broadcast-write per other
	// populated channel (all sibling DIMMs receive each replay at once).
	// Each replay is a host-CPU store stream: it pays the forwarding
	// thread's copy throughput, not raw channel speed. The replay targets
	// each channel's actual first DIMM — channels left empty by a
	// non-multiple NumDIMMs are skipped entirely.
	t = chEnd + b.host.Config().FwdLatency
	srcCh := b.geo.ChannelOfDIMM(srcDIMM)
	for ch := 0; ch < b.geo.NumChannels; ch++ {
		if ch == srcCh || b.firstInCh[ch] < 0 {
			continue
		}
		fin := b.host.ForwardCached(t, b.firstInCh[ch], size)
		b.tx.BcastXfers.Inc()
		if fin > last {
			last = fin
		}
	}
	return last
}

// Barrier implements Interconnect: ABC-DIMM synchronizes exactly like MCN
// (host-forwarded centralized messages); its broadcast commands do not help
// the gather phase.
func (b *ABCDIMM) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	b.tx.Barriers.Inc()
	return CentralizedBarrier(arrivals, threadDIMM, intraDIMMSyncCost, 0,
		func(at sim.Time, src, dst int) sim.Time {
			b.tx.SyncMsgs.Inc()
			noticed := b.notice(at, src)
			return b.host.Forward(noticed, src, dst, syncMsgBytes)
		})
}

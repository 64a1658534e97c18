package idc

import (
	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ABCDIMM models ABC-DIMM's intra-channel broadcast (Table I, column 2):
// the host CPU issues customized broadcast-read/write commands so that one
// channel transaction delivers data to every DIMM on that channel. Its
// limits, which the paper exploits, are that DDR4 signal integrity caps the
// DIMMs-per-channel at 2-3, that point-to-point traffic still goes through
// CPU forwarding, and that crossing channels requires the host to replay
// the broadcast on every other channel. Everything but the broadcast —
// point-to-point access, barriers, polling — is MCN's CPU forwarding.
type ABCDIMM struct{ *MCN }

// NewABCDIMM builds the mechanism over the host h, which polls every DIMM
// as in MCN (ABC-DIMM has no proxies).
func NewABCDIMM(geo mem.Geometry, modules []*dram.Module, h *host.Host) *ABCDIMM {
	return &ABCDIMM{NewMCN(geo, modules, h)}
}

// Name implements Interconnect.
func (b *ABCDIMM) Name() string { return "abc-dimm" }

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
	// channel (all sibling DIMMs receive each replay at once). Each replay
	// is a host-CPU store stream: it pays the forwarding thread's copy
	// throughput, not raw channel speed. The channel count divides the
	// DIMM count (mem.Geometry.Validate), so channel ch's first DIMM is
	// ch*DIMMsPerChannel.
	t = chEnd + host.FwdLatency
	srcCh := b.geo.ChannelOfDIMM(srcDIMM)
	for ch := 0; ch < b.geo.NumChannels; ch++ {
		if ch == srcCh {
			continue
		}
		fin := b.host.ForwardCached(t, ch*b.geo.DIMMsPerChannel(), size)
		b.tx.BcastXfers.Inc()
		if fin > last {
			last = fin
		}
	}
	return last
}

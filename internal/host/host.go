// Package host models the host CPU's role in inter-DIMM communication:
// polling the DIMMs' memory-mapped request registers, and forwarding
// packets between memory channels through its cache hierarchy.
//
// The paper treats the host as "a routing node that takes certain cycles to
// forward a packet" (Section V-B), with the forwarding latency profiled in
// gem5; the package fixes that latency, and the other host timings, as
// constants calibrated against Figures 1 and 15. On top of them it
// implements the four polling strategies of Table III:
//
//	Base        — the host scans every registered DIMM each polling interval.
//	Base+Itrpt  — DIMMs raise ALERT_N; the host then scans the interrupting
//	              channel's DIMMs (interrupt handling adds latency).
//	Proxy       — the host scans only the proxy DIMM of each DL group
//	              (requests reach the proxy over DIMM-Link).
//	Proxy+Itrpt — the proxy raises ALERT_N; the host reads just the proxy.
//
// Polling occupies the memory channel buses whether or not requests exist,
// which is exactly the overhead Figure 15 quantifies.
package host

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PollingMode selects one of Table III's strategies.
type PollingMode int

const (
	// BasePolling scans all registered DIMMs every interval.
	BasePolling PollingMode = iota
	// BaseInterrupt scans the interrupting channel's DIMMs on ALERT_N.
	BaseInterrupt
	// ProxyPolling scans one proxy DIMM per DL group every interval.
	ProxyPolling
	// ProxyInterrupt reads just the interrupting proxy on ALERT_N.
	ProxyInterrupt
)

func (m PollingMode) String() string {
	switch m {
	case BasePolling:
		return "base"
	case BaseInterrupt:
		return "base+itrpt"
	case ProxyPolling:
		return "proxy"
	case ProxyInterrupt:
		return "proxy+itrpt"
	default:
		return fmt.Sprintf("PollingMode(%d)", int(m))
	}
}

// Interrupting reports whether the mode is interrupt-driven (no periodic
// scan).
func (m PollingMode) Interrupting() bool {
	return m == BaseInterrupt || m == ProxyInterrupt
}

// The host timings of the evaluation: a 100 ns busy-polling loop whose
// per-DIMM register read occupies the bus for 16 ns (32% occupation at
// 2 DPC, matching Figure 15's Base bar), a 1.5 us interrupt entry, a
// 300 ns forwarding pipeline, and a DDR4-3200 channel.
const (
	// PollInterval is the period of the host's polling loop.
	PollInterval = 100 * sim.Nanosecond
	// pollCost is the channel-bus occupancy of reading one DIMM's polling
	// register (command, burst, bus turnaround).
	pollCost = 16 * sim.Nanosecond
	// InterruptLatency is the cost of taking the ALERT_N interrupt and
	// entering the handler (context switch), before any register reads.
	InterruptLatency = 1500 * sim.Nanosecond
	// FwdLatency is the end-to-end pipeline latency of one forwarding
	// episode through the host CPU (load into the cache hierarchy, decode,
	// store), from gem5 profiling. The forwarding loop is pipelined: this
	// latency is paid once per episode, while the forwarding thread is
	// occupied for fwdCPUPerPacket plus the copy time.
	FwdLatency = 300 * sim.Nanosecond
	// fwdCPUPerPacket is the per-episode bookkeeping time on the (single)
	// forwarding thread: queue pop, header decode, descriptor update.
	fwdCPUPerPacket = 50 * sim.Nanosecond
	// fwdBytesPerSec is the forwarding thread's sustainable copy
	// throughput: the load-through-cache-then-store path is far slower than
	// raw channel bandwidth (the paper's Figure 1 measures ~3.14 GB/s P2P
	// IDC on real UPMEM hardware; 6 GB/s of one-way copy throughput
	// reproduces that).
	fwdBytesPerSec = 6e9
	// ChannelBytesPerSec is the host memory channel bandwidth.
	ChannelBytesPerSec = 25.6e9
)

// Host is the host-CPU model. It owns the per-channel memory buses (in NMP
// mode the host only touches DIMM buffer SRAM over them, so they are
// independent of the DIMM-internal rank buses) and a single forwarding
// engine (the paper assumes one polling thread).
type Host struct {
	eng      *sim.Engine
	mode     PollingMode
	channels []*sim.BusyLine
	chanOf   []int        // DIMM -> channel index, from geo.ChannelOfDIMM
	fwd      sim.BusyLine // the host forwarding thread

	pollTargets []int // DIMMs scanned by the periodic loop
	ticker      *sim.Ticker
	Counters    stats.Counters

	// Handles into Counters for the per-poll and per-transfer bumps.
	polls, busBytes, forwards, fwdBytes *stats.Counter

	// Observability, attached via SetMetrics; nil records nothing.
	coll *metrics.Collector
}

// New builds a host over the geometry that notices forwarding requests in
// the given polling mode. pollTargets lists the DIMMs the periodic polling
// loop scans (for proxy modes, one proxy per DL group); it is ignored in
// interrupt modes.
func New(eng *sim.Engine, geo mem.Geometry, mode PollingMode, pollTargets []int) *Host {
	h := &Host{eng: eng, mode: mode, channels: make([]*sim.BusyLine, geo.NumChannels)}
	for i := range h.channels {
		h.channels[i] = &sim.BusyLine{}
	}
	h.polls = h.Counters.Handle("host.polls")
	h.busBytes = h.Counters.Handle("hostbus.bytes")
	h.forwards = h.Counters.Handle("host.forwards")
	h.fwdBytes = h.Counters.Handle("fwd.bytes")
	h.chanOf = make([]int, geo.NumDIMMs)
	for d := range h.chanOf {
		h.chanOf[d] = geo.ChannelOfDIMM(d)
	}
	h.pollTargets = append(h.pollTargets, pollTargets...)
	if !mode.Interrupting() && len(h.pollTargets) > 0 {
		h.ticker = sim.NewTicker(eng, PollInterval, h.pollOnce)
	}
	return h
}

// Stop halts the background polling loop (end of simulation).
func (h *Host) Stop() {
	if h.ticker != nil {
		h.ticker.Stop()
	}
}

// Mode returns the host's polling mode.
func (h *Host) Mode() PollingMode { return h.mode }

// SetMetrics attaches an observability collector. Observation is passive:
// it never reserves bus time, so instrumented runs are timing-identical.
func (h *Host) SetMetrics(c *metrics.Collector) { h.coll = c }

// pollOnce scans every poll target, occupying each target's channel bus.
func (h *Host) pollOnce(now sim.Time) {
	for _, dimm := range h.pollTargets {
		ch := h.chanOf[dimm]
		h.channels[ch].Reserve(now, pollCost)
		h.polls.Inc()
	}
}

// NoticeTime returns when the host learns about a forwarding request
// registered at time at on the given DIMM (for proxy modes, dimm is the
// proxy the request was aggregated to). In periodic modes this is the next
// tick of the polling loop; in interrupt modes it is the ALERT_N path:
// interrupt entry plus a scan of the candidate DIMMs (scanDIMMs — the
// interrupting channel's DPC for Base+Itrpt, 1 for Proxy+Itrpt).
func (h *Host) NoticeTime(at sim.Time, dimm int, scanDIMMs int) sim.Time {
	if h.mode.Interrupting() {
		if scanDIMMs < 1 {
			scanDIMMs = 1
		}
		t := at + InterruptLatency
		ch := h.chanOf[dimm]
		var end sim.Time
		for i := 0; i < scanDIMMs; i++ {
			_, end = h.channels[ch].Reserve(t, pollCost)
			h.polls.Inc()
			t = end
		}
		return end
	}
	// Periodic: the request is visible at the first tick strictly after at.
	// The tick itself reserves bus time via pollOnce; here we add the cost
	// of reading out the request descriptors.
	next := (at/PollInterval + 1) * PollInterval
	ch := h.chanOf[dimm]
	_, end := h.channels[ch].Reserve(next, pollCost)
	h.polls.Inc()
	return end
}

// transfer reserves the channel bus of the given DIMM for moving size bytes
// and returns the completion time.
func (h *Host) transfer(at sim.Time, dimm int, size uint32) sim.Time {
	ch := h.chanOf[dimm]
	dur := sim.TransferTime(uint64(size), ChannelBytesPerSec)
	_, end := h.channels[ch].Reserve(at, dur)
	h.busBytes.Add(uint64(size))
	return end
}

// ReadFrom moves size bytes from the DIMM's buffer SRAM to the host over
// the DIMM's channel.
func (h *Host) ReadFrom(at sim.Time, dimm int, size uint32) sim.Time {
	return h.transfer(at, dimm, size)
}

// WriteTo moves size bytes from the host to the DIMM's buffer SRAM.
func (h *Host) WriteTo(at sim.Time, dimm int, size uint32) sim.Time {
	return h.transfer(at, dimm, size)
}

// Forward moves one already-noticed packet (or packet burst) of size bytes
// from src to dst. The forwarding loop is pipelined: the single forwarding
// thread is occupied for the bookkeeping cost plus the copy itself (so its
// sustainable throughput is channel-bandwidth-bound), the source and
// destination channel buses each carry the payload once, and delivery
// trails by the fixed pipeline latency. The returned time is when the
// payload is fully written to dst.
func (h *Host) Forward(at sim.Time, src, dst int, size uint32) sim.Time {
	copyTime := sim.TransferTime(uint64(size), fwdBytesPerSec)
	start, _ := h.fwd.Reserve(at, fwdCPUPerPacket+copyTime)
	h.ReadFrom(start, src, size)
	// The store stream trails the load stream by the pipeline latency; the
	// copy itself runs at the forwarding thread's cache-hierarchy
	// throughput, not raw channel speed.
	end := h.WriteTo(start+FwdLatency, dst, size)
	if slow := start + FwdLatency + copyTime; slow > end {
		end = slow
	}
	h.forwards.Inc()
	h.fwdBytes.Add(uint64(size))
	if h.coll.Active() {
		h.coll.Observe(metrics.HistHostFwd, end-at)
		h.coll.Packet(at, "hostfwd", src, dst, int(size))
	}
	return end
}

// ForwardCached writes a payload the host already holds in its cache
// hierarchy to dst (the tail of a one-read, many-write broadcast): a
// forwarding-thread slot plus the destination channel transfer only.
func (h *Host) ForwardCached(at sim.Time, dst int, size uint32) sim.Time {
	copyTime := sim.TransferTime(uint64(size), fwdBytesPerSec)
	start, _ := h.fwd.Reserve(at, fwdCPUPerPacket+copyTime)
	end := h.WriteTo(start+fwdCPUPerPacket, dst, size)
	if slow := start + fwdCPUPerPacket + copyTime; slow > end {
		end = slow
	}
	h.forwards.Inc()
	h.fwdBytes.Add(uint64(size))
	return end
}

// ChannelAccessStart reserves the channel bus of the DIMM for a host-issued
// DRAM transaction of size bytes and returns the reservation window. Used
// by the host-baseline memory system and ABC-DIMM's broadcast commands.
func (h *Host) ChannelAccessStart(at sim.Time, dimm int, size uint32) (start, end sim.Time) {
	ch := h.chanOf[dimm]
	dur := sim.TransferTime(uint64(size), ChannelBytesPerSec)
	h.busBytes.Add(uint64(size))
	return h.channels[ch].Reserve(at, dur)
}

// BusOccupation returns the mean utilization of all channel buses over
// [0, now] — the metric of Figure 15(b).
func (h *Host) BusOccupation(now sim.Time) float64 {
	if now == 0 || len(h.channels) == 0 {
		return 0
	}
	var sum float64
	for _, c := range h.channels {
		sum += c.Utilization(now)
	}
	return sum / float64(len(h.channels))
}

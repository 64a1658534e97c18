package host

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func geo16() mem.Geometry {
	return mem.Geometry{
		NumDIMMs:     16,
		NumChannels:  8,
		DIMMCapBytes: 1 << 26,
		RanksPerDIMM: 2,
		BanksPerRank: 16,
		RowBytes:     8192,
		LineBytes:    64,
	}
}

func allDIMMs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPollingModeStrings(t *testing.T) {
	if BasePolling.String() != "base" || ProxyInterrupt.String() != "proxy+itrpt" {
		t.Fatal("mode strings wrong")
	}
	if BasePolling.Interrupting() || !BaseInterrupt.Interrupting() {
		t.Fatal("Interrupting() wrong")
	}
}

func TestBasePollingBusOccupation(t *testing.T) {
	// 2 DPC, 16 ns poll per DIMM, 100 ns interval -> 32% occupation, the
	// Figure 15(b) Base bar.
	eng := sim.NewEngine()
	h := New(eng, geo16(), BasePolling, allDIMMs(16))
	eng.RunUntil(1 * sim.Millisecond)
	occ := h.BusOccupation(eng.Now())
	if occ < 0.31 || occ > 0.33 {
		t.Fatalf("base polling occupation = %.3f, want ~0.32", occ)
	}
}

func TestProxyPollingBusOccupation(t *testing.T) {
	// Two proxies (one per group) -> only 2 of 8 channels polled, 16 ns per
	// 100 ns each: mean occupation = 2/8 * 0.16 = 4%.
	eng := sim.NewEngine()
	h := New(eng, geo16(), ProxyPolling, []int{3, 11})
	eng.RunUntil(1 * sim.Millisecond)
	occ := h.BusOccupation(eng.Now())
	if occ < 0.035 || occ > 0.045 {
		t.Fatalf("proxy polling occupation = %.3f, want ~0.04", occ)
	}
}

func TestInterruptModeIdleBusIsFree(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, geo16(), ProxyInterrupt, nil)
	eng.RunUntil(1 * sim.Millisecond)
	if occ := h.BusOccupation(eng.Now()); occ != 0 {
		t.Fatalf("interrupt-mode idle occupation = %v, want 0", occ)
	}
}

func TestNoticeTimePeriodic(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, geo16(), BasePolling, allDIMMs(16))
	// A request registered at 250 ns is noticed at the 300 ns tick (plus
	// the readout cost).
	n := h.NoticeTime(250*sim.Nanosecond, 0, 1)
	if n < 300*sim.Nanosecond || n > 300*sim.Nanosecond+2*pollCost {
		t.Fatalf("notice at %d, want just after 300ns", n)
	}
	// A request registered exactly on a tick waits for the next tick.
	n2 := h.NoticeTime(300*sim.Nanosecond, 0, 1)
	if n2 < 400*sim.Nanosecond {
		t.Fatalf("on-tick request noticed at %d, want >= 400ns", n2)
	}
}

func TestNoticeTimeInterrupt(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, geo16(), BaseInterrupt, nil)
	// Base+Itrpt scans both DIMMs of the interrupting channel.
	n := h.NoticeTime(0, 0, 2)
	want := InterruptLatency + 2*pollCost
	if n != want {
		t.Fatalf("interrupt notice at %d, want %d", n, want)
	}
	// Proxy+Itrpt reads a single register.
	hp := New(sim.NewEngine(), geo16(), ProxyInterrupt, nil)
	np := hp.NoticeTime(0, 3, 1)
	if np != InterruptLatency+pollCost {
		t.Fatalf("proxy interrupt notice at %d", np)
	}
}

func TestForwardOccupiesBothChannels(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, geo16(), ProxyInterrupt, nil) // no background polling noise
	// DIMM 0 is on channel 0; DIMM 15 on channel 7. The store stream
	// trails the load stream by the pipeline latency, and the copy runs at
	// the forwarding thread's cache-hierarchy throughput.
	done := h.Forward(0, 0, 15, 256)
	want := FwdLatency + sim.TransferTime(256, fwdBytesPerSec)
	if done != want {
		t.Fatalf("forward done at %d, want %d", done, want)
	}
	if u0, u7 := h.channels[0].Utilization(done), h.channels[7].Utilization(done); u0 == 0 || u7 == 0 {
		t.Fatalf("channels not occupied: %v, %v", u0, u7)
	}
	if h.Counters.Get("host.forwards") != 1 || h.Counters.Get("fwd.bytes") != 256 {
		t.Fatalf("counters wrong: %v", h.Counters)
	}
}

func TestForwardsSerializeOnHost(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, geo16(), ProxyInterrupt, nil)
	a := h.Forward(0, 0, 15, 4096)
	b := h.Forward(0, 2, 13, 4096) // different channels, same host thread
	if b <= a {
		t.Fatalf("concurrent forwards did not serialize on the host: %d vs %d", b, a)
	}
	// The gap reflects pipelined throughput (bookkeeping + copy at the
	// forwarding thread's rate), not the full pipeline latency per packet.
	copyTime := sim.TransferTime(4096, fwdBytesPerSec)
	if gap := b - a; gap != fwdCPUPerPacket+copyTime {
		t.Fatalf("forward gap %d, want %d", gap, fwdCPUPerPacket+copyTime)
	}
}

func TestChannelSharingBetweenDIMMs(t *testing.T) {
	// Two DIMMs on the same channel contend for its bus.
	eng := sim.NewEngine()
	h := New(eng, geo16(), ProxyInterrupt, nil)
	a := h.ReadFrom(0, 0, 4096)
	b := h.ReadFrom(0, 1, 4096) // same channel as DIMM 0
	if b != 2*a {
		t.Fatalf("same-channel transfers should serialize: %d vs %d", b, a)
	}
	c := h.ReadFrom(0, 2, 4096) // channel 1, free
	if c != a {
		t.Fatalf("different-channel transfer should not contend: %d vs %d", c, a)
	}
}

func TestStopHaltsPolling(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, geo16(), BasePolling, allDIMMs(16))
	eng.RunUntil(1 * sim.Microsecond)
	polls := h.Counters.Get("host.polls")
	h.Stop()
	eng.RunUntil(1 * sim.Millisecond)
	if h.Counters.Get("host.polls") != polls {
		t.Fatal("polling continued after Stop")
	}
}

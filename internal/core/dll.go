// This file is the DL-Controller's data-link layer, exercised when a
// fault plan is active (Config.Fault). The packet format already
// reserves the machinery's wire state — a CRC-32 tail plus a DLL word
// carrying sequence and credit fields (Figure 3, packet.go) — and this
// models the controller behind it: a per-link replay buffer with
// ACK/NAK, timeout-based retransmission with bounded retries and
// exponential backoff, and a retired-sequence window bounding in-flight
// packets per link. On retry exhaustion a link is declared dead and the
// router degrades: rings reverse direction, mesh/torus route around the
// dead edge, and a severed chain falls back to host CPU forwarding.
//
// Packets take one transport path with or without a plan: sendPacket and
// broadcastWithin walk the group network's routes and trees hop by hop.
// Without an active plan a hop skips the DLL and is one bare link
// crossing; there is no separate fast path.
package core

import (
	"repro/internal/fault"
	"repro/internal/idc"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// faultCounters are the Link's handles to the fault-injection counters,
// bumped only on the DLL path.
type faultCounters struct {
	corrupted, replays, timeouts, linkDown *stats.Counter
	reroutes, fallback, fallbackBytes      *stats.Counter
}

func newFaultCounters(c *stats.Counters) faultCounters {
	return faultCounters{
		corrupted:     c.Handle(idc.CtrFaultCorrupted),
		replays:       c.Handle(idc.CtrFaultReplays),
		timeouts:      c.Handle(idc.CtrFaultTimeouts),
		linkDown:      c.Handle(idc.CtrFaultLinkDown),
		reroutes:      c.Handle(idc.CtrFaultReroutes),
		fallback:      c.Handle(idc.CtrFaultFallback),
		fallbackBytes: c.Handle(idc.CtrFaultFallbackB),
	}
}

// The per-link DLL retry machinery, sized like a modest buffer-chip SRAM
// block.
const (
	// replayBufBytes is the per-link replay buffer: a packet occupies it
	// from injection until its ACK returns, so buffer pressure throttles a
	// lossy link.
	replayBufBytes = 4 << 10
	// dllWindow bounds unacknowledged packets in flight per link (the
	// retired-sequence window the DLL word's 16-bit SEQ field tracks).
	dllWindow = 16
	// ackTimeout is the base retransmission timer, the same retry timeout
	// as ErrorEvery's; it doubles on every retry (exponential backoff).
	ackTimeout = retryTimeout
	// maxRetries is the attempt budget before the link is declared
	// permanently dead and handed to the router to route around.
	maxRetries = 6
)

// dllChan is the sender-side DLL state of one directed link.
type dllChan struct {
	replay *byteBuffer
	ackAt  []sim.Time // ring over the sequence window: when each slot's ACK returned
	wIdx   int
}

// dll returns (building on first use) the DLL channel for local link u->v.
func (g *group) dll(u, v int) *dllChan {
	k := [2]int{u, v}
	ch := g.dllCh[k]
	if ch == nil {
		ch = &dllChan{
			replay: newByteBuffer(replayBufBytes),
			ackAt:  make([]sim.Time, dllWindow),
		}
		g.dllCh[k] = ch
	}
	return ch
}

// ackDelay is the DLL acknowledgment return latency across one link: one
// flit's serialization plus wire and router crossing. ACKs piggyback on
// the DLL word of reverse traffic (Figure 3), so they do not reserve
// reverse-link bus time.
func (l *Link) ackDelay() sim.Time {
	ser := sim.TransferTime(FlitBytes, l.cfg.Link.BytesPerSec)
	return ser + noc.HopRelay
}

// dllHop carries one packet across a single link under the DLL. The
// packet claims a sequence slot and replay-buffer space, crosses the
// wire, and retires when its ACK returns. A corrupted crossing is NAKed
// by the receiver's CRC check and replayed from the buffer; a dropped
// crossing waits out the retransmission timer with exponential backoff.
// maxRetries failures declare the link dead. Returns the packet's
// arrival time at v and true, or the time the sender gave up and false.
func (l *Link) dllHop(g *group, u, v int, at sim.Time, wire int) (sim.Time, bool) {
	ch := g.dll(u, v)
	// Sequence window: the slot dllWindow packets back must have retired.
	start := at
	if w := ch.ackAt[ch.wIdx]; w > start {
		start = w
	}
	var arrive sim.Time
	ok := true
	ackReturn := ch.replay.holdWith(start, wire, func(admit sim.Time) sim.Time {
		t := admit
		for attempt := 0; ; attempt++ {
			hopArrive, verdict, err := g.net.HopCrossing(u, v, t, wire)
			if err != nil {
				// The link died between routing and injection.
				arrive = t
				ok = false
				return t
			}
			switch verdict {
			case fault.VerdictOK:
				arrive = hopArrive
				return hopArrive + l.ackDelay()
			case fault.VerdictCorrupt:
				// The receiver's CRC check fails and it NAKs; the sender
				// replays from the buffer as soon as the NAK returns.
				l.fc.corrupted.Inc()
				l.fc.replays.Inc()
				l.retries.Inc()
				stall := hopArrive + l.ackDelay() - t
				l.coll.Observe(metrics.HistDLLRetry, stall)
				t = hopArrive + l.ackDelay()
			case fault.VerdictDrop:
				// The flits vanished; no NAK ever comes, so the
				// retransmission timer fires, doubling each attempt.
				l.fc.timeouts.Inc()
				l.retries.Inc()
				l.coll.Observe(metrics.HistDLLRetry, ackTimeout<<uint(attempt))
				t += ackTimeout << uint(attempt)
			}
			if attempt+1 >= maxRetries {
				// Retry budget exhausted: declare the link dead so the
				// router stops choosing it, and report failure upward.
				l.flt.ForceDown(g.base+u, g.base+v, t)
				l.fc.linkDown.Inc()
				arrive = t
				ok = false
				return t
			}
		}
	})
	if !ok {
		return arrive, false
	}
	// Retire the sequence slot when the ACK returned; the next packet
	// that wraps around to this slot waits for it.
	ch.ackAt[ch.wIdx] = ackReturn
	ch.wIdx = (ch.wIdx + 1) % len(ch.ackAt)
	return arrive, true
}

// hostFallback delivers a packet between DIMMs whose DL path is severed:
// the stranded controller registers a forwarding request and the host
// CPU moves the packet over the memory channels, exactly like
// inter-group traffic (Section III-C). This is the graceful-degradation
// path of last resort — slow, but the computation completes.
func (l *Link) hostFallback(at sim.Time, srcDIMM, dstDIMM int, wire int) sim.Time {
	l.fc.fallback.Inc()
	l.fc.fallbackBytes.Add(uint64(wire))
	noticed := l.host.NoticeTime(at, srcDIMM, 1)
	return l.host.Forward(noticed, srcDIMM, dstDIMM, uint32(wire))
}

// This file models the DL-Controller's structural resources from Figure 6:
// the NW-Interface's outstanding-transaction tag table (the 6-bit TAG field
// bounds it to 64 entries), the Data Buffer that holds received memory-
// access requests until the local MC drains them, and the Packet Buffer
// that holds CPU-forwarding packets until the host fetches them. Finite
// buffers create backpressure: a transaction that cannot get a tag or
// buffer space waits for one to free.
package core

import (
	"sort"

	"repro/internal/sim"
)

// A DL-Controller's buffers are sized like a modest buffer-chip SRAM; it
// has all MaxTag transaction tags.
const (
	// dataBufBytes is the SRAM Data Buffer for received requests (❻ in
	// Figure 6).
	dataBufBytes = 32 << 10
	// packetBufBytes is the SRAM Packet Buffer for host-forwarded packets
	// (❼ in Figure 6).
	packetBufBytes = 32 << 10
)

// Controller is the per-DIMM structural state.
type Controller struct {
	DIMM    int
	tags    *sim.Pool
	dataBuf *byteBuffer
	pktBuf  *byteBuffer
}

// NewController builds the controller for one DIMM.
func NewController(dimm int) *Controller { return newController(dimm, MaxTag) }

// newController builds a controller with tags transaction tags (tests
// shrink the table to provoke tag pressure).
func newController(dimm, tags int) *Controller {
	return &Controller{
		DIMM:    dimm,
		tags:    sim.NewPool(tags),
		dataBuf: newByteBuffer(dataBufBytes),
		pktBuf:  newByteBuffer(packetBufBytes),
	}
}

// AcquireTag books a transaction tag starting no earlier than at; release
// it with ReleaseTag when the transaction completes. It returns the slot
// and the time the transaction may actually begin (later than at when all
// tags are busy).
func (c *Controller) AcquireTag(at sim.Time) (slot int, start sim.Time) {
	return c.tags.AcquireSlot(at)
}

// ReleaseTag frees a tag at the transaction's completion time.
func (c *Controller) ReleaseTag(slot int, at sim.Time) { c.tags.ReleaseSlot(slot, at) }

// HoldData admits an incoming request of size bytes into the Data Buffer
// no earlier than arrive (later when the buffer is full), runs service
// (which receives the admission time and returns when the local MC has
// drained the entry), records the occupancy, and returns service's result.
func (c *Controller) HoldData(arrive sim.Time, bytes int, service func(admit sim.Time) sim.Time) sim.Time {
	return c.dataBuf.holdWith(arrive, bytes, service)
}

// HoldPacket is HoldData for the Packet Buffer (CPU-forwarding path):
// service returns when the host has fetched the packet.
func (c *Controller) HoldPacket(arrive sim.Time, bytes int, service func(admit sim.Time) sim.Time) sim.Time {
	return c.pktBuf.holdWith(arrive, bytes, service)
}

// TagsInUse reports how many transaction tags are busy at time at — the
// metrics sampler's queue-depth probe. Read-only.
func (c *Controller) TagsInUse(at sim.Time) int { return c.tags.InUse(at) }

// byteBuffer tracks timed byte reservations against a capacity: an entry
// occupies space from its admission until its release time. Admission is
// delayed until enough space has freed.
type byteBuffer struct {
	cap      int
	holds    []bufHold // sorted by freeAt
	occupied int
}

type bufHold struct {
	freeAt sim.Time
	bytes  int
}

func newByteBuffer(capBytes int) *byteBuffer { return &byteBuffer{cap: capBytes} }

// release frees every hold expiring at or before t.
func (b *byteBuffer) release(t sim.Time) {
	i := 0
	for i < len(b.holds) && b.holds[i].freeAt <= t {
		b.occupied -= b.holds[i].bytes
		i++
	}
	if i > 0 {
		b.holds = append(b.holds[:0], b.holds[i:]...)
	}
}

// holdWith admits an entry of size bytes no earlier than at (delayed while
// the buffer is full), calls service with the admission time to learn the
// entry's release time, records the reservation, and returns service's
// result. Entries larger than the whole buffer are truncated to capacity
// (cut-through: they stream rather than store).
func (b *byteBuffer) holdWith(at sim.Time, bytes int, service func(admit sim.Time) sim.Time) sim.Time {
	if bytes <= 0 {
		return service(at)
	}
	if bytes > b.cap {
		bytes = b.cap
	}
	b.release(at)
	admit := at
	for b.occupied+bytes > b.cap && len(b.holds) > 0 {
		admit = b.holds[0].freeAt
		b.release(admit)
	}
	until := service(admit)
	if until < admit {
		until = admit
	}
	b.occupied += bytes
	// Insert sorted by freeAt.
	idx := sort.Search(len(b.holds), func(i int) bool { return b.holds[i].freeAt > until })
	b.holds = append(b.holds, bufHold{})
	copy(b.holds[idx+1:], b.holds[idx:])
	b.holds[idx] = bufHold{freeAt: until, bytes: bytes}
	return until
}

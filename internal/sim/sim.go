// Package sim provides the discrete-event simulation kernel that every
// timing model in this repository is built on.
//
// The kernel is deliberately small: a clock, an event heap with
// deterministic FIFO tie-breaking, and a couple of helper abstractions
// (BusyLine for serialized resources such as data buses and serial links,
// Ticker for periodic activities such as host polling and metric sampling).
//
// Simulated time is measured in integer picoseconds so that components in
// different clock domains (2.5 GHz cores, DDR4-3200 DRAM, 25 GB/s SerDes
// links) can be composed without fractional-cycle bookkeeping. A uint64
// picosecond clock wraps after ~213 days of simulated time, far beyond any
// experiment in this repository.
package sim

import (
	"fmt"
)

// Time is a point in (or duration of) simulated time, in picoseconds.
type Time = uint64

// Convenient duration units, all expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Period returns the duration of one cycle of a clock running at hz hertz.
// It rounds to the nearest picosecond.
func Period(hz float64) Time {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: non-positive frequency %v", hz))
	}
	return Time(1e12/hz + 0.5)
}

// Cycles converts n cycles of a clock with the given period into a duration.
func Cycles(n uint64, period Time) Time { return n * period }

// TransferTime returns the time to move n bytes over a resource with the
// given bandwidth in bytes per second, rounded up to a whole picosecond.
func TransferTime(n uint64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: non-positive bandwidth %v", bytesPerSec))
	}
	t := float64(n) / bytesPerSec * 1e12
	ft := Time(t)
	if float64(ft) < t {
		ft++
	}
	return ft
}

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	fn  func()
}

// before orders events by (at, seq): timestamp first, scheduling order for
// ties. seq is unique per engine, so this is a strict total order and any
// correct heap pops events in exactly this sequence — the determinism
// contract does not depend on heap shape or arity.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled 4-ary min-heap over event values. Compared to
// container/heap on a binary heap it removes the interface{} boxing on
// every push and pop (two heap allocations per event) and the virtual
// Less/Swap calls, and halves the tree depth: sift-down touches 4 children
// per level but runs half as many levels, which wins on the wide, shallow
// heaps a simulation keeps (hundreds of in-flight events). Children of
// node i are 4i+1..4i+4.
type eventHeap []event

// push adds ev, restoring the heap property by sifting up.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // release the callback for GC
	s = s[:n]
	*h = s
	if n > 0 {
		// Sift the displaced last element down from the root.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			best := c
			for j := c + 1; j < end; j++ {
				if s[j].before(&s[best]) {
					best = j
				}
			}
			if !s[best].before(&last) {
				break
			}
			s[i] = s[best]
			i = best
		}
		s[i] = last
	}
	return top
}

// Engine is a deterministic single-threaded discrete-event simulator.
// Events scheduled for the same instant run in the order they were
// scheduled. The zero value is not usable; call NewEngine.
//
// front holds the one pending event that is strictly earlier in (at, seq)
// than every event in the heap, when there is such an event: a thread
// resuming a few cycles later usually is, and then it never touches the
// heap. Step pops front first, so the pop order is the heap's own.
type Engine struct {
	now       Time
	seq       uint64
	front     event
	hasFront  bool
	events    eventHeap
	processed uint64
}

// NewEngine returns an empty engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a timing-model bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t, fn)
}

// After schedules fn to run d picoseconds from now. now+d can never be in
// the past (the uint64 clock does not wrap within any experiment), so the
// past-check of At is skipped.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, fn) }

// schedule queues fn at t. A new event carries the largest seq so far, so
// it is strictly earlier than every pending event exactly when its time is
// earlier than the earliest pending time; then it takes front, and a
// displaced front goes into the heap.
func (e *Engine) schedule(t Time, fn func()) {
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	if next, ok := e.nextAt(); ok && t >= next {
		e.events.push(ev)
		return
	}
	if e.hasFront {
		e.events.push(e.front)
	}
	e.front, e.hasFront = ev, true
}

// nextAt returns the time of the earliest pending event, if any.
func (e *Engine) nextAt() (Time, bool) {
	if e.hasFront {
		return e.front.at, true
	}
	if len(e.events) > 0 {
		return e.events[0].at, true
	}
	return 0, false
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	var ev event
	switch {
	case e.hasFront:
		ev = e.front
		e.front, e.hasFront = event{}, false
	case len(e.events) > 0:
		ev = e.events.pop()
	default:
		return false
	}
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// BusyLine models a resource that serves requests one at a time in FIFO
// order: a DRAM data bus, a SerDes lane, the host memory channel during
// forwarding. Reserving time on the line returns when the transfer starts
// and ends; the caller schedules its own completion event.
//
// Utilization accounting distinguishes booked time from elapsed time:
// reservations may extend beyond the clock (the host polling loop books
// future ticks, pipelined senders book ahead of the packet in flight), so
// Utilization(now) counts only the booked time that falls inside [0, now].
// Recent spans are kept until a utilization query retires them; back-to-
// back bookings coalesce into one span, and the span list is folded into a
// settled total when it grows past a small cap, so memory stays O(1) per
// line regardless of traffic.
type BusyLine struct {
	busyUntil Time
	settled   Time // booked time in spans already folded out of pending
	pending   []busySpan
}

// busySpan is one contiguous booked interval [start, end).
type busySpan struct {
	start, end Time
}

// busyPendingCap bounds the unfolded span list. Folding drops a span's
// position but keeps its duration; it only loses precision for a later
// Utilization query earlier than the folded span's end, which the final
// clamp in busyUpTo keeps from ever pushing utilization past 1.
const busyPendingCap = 64

// Reserve books dur picoseconds on the line no earlier than at, returning
// the start and end of the booked slot.
func (b *BusyLine) Reserve(at Time, dur Time) (start, end Time) {
	start = at
	if b.busyUntil > start {
		start = b.busyUntil
	}
	end = start + dur
	b.busyUntil = end
	if dur > 0 {
		if n := len(b.pending); n > 0 && b.pending[n-1].end == start {
			b.pending[n-1].end = end // back-to-back: extend the open span
		} else {
			b.pending = append(b.pending, busySpan{start, end})
			if len(b.pending) > busyPendingCap {
				// Fold the oldest half; these are the earliest-ending
				// spans, long past by the time anyone queries.
				half := len(b.pending) / 2
				for _, s := range b.pending[:half] {
					b.settled += s.end - s.start
				}
				b.pending = append(b.pending[:0], b.pending[half:]...)
			}
		}
	}
	return start, end
}

// busyUpTo returns the booked time inside [0, now], retiring fully-past
// spans into the settled total. Queries are expected to be non-decreasing
// in now (end-of-run reports and the metrics sampler both are); the final
// clamp guarantees the result never exceeds now even if a span was folded
// early.
func (b *BusyLine) busyUpTo(now Time) Time {
	i := 0
	for i < len(b.pending) && b.pending[i].end <= now {
		b.settled += b.pending[i].end - b.pending[i].start
		i++
	}
	if i > 0 {
		b.pending = append(b.pending[:0], b.pending[i:]...)
	}
	busy := b.settled
	for _, s := range b.pending {
		if s.start >= now {
			break
		}
		busy += now - s.start // s.end > now here: the span straddles now
	}
	if busy > now {
		busy = now
	}
	return busy
}

// Utilization returns the fraction of [0, now] the line was occupied.
// Time booked beyond now is excluded, so the result is always in [0, 1].
func (b *BusyLine) Utilization(now Time) float64 {
	if now == 0 {
		return 0
	}
	return float64(b.busyUpTo(now)) / float64(now)
}

// Pool models a resource with K interchangeable slots served in FIFO order
// of request: transaction tags, MSHR entries, buffer slots. AcquireSlot
// books the slot that frees earliest, the lowest index among ties.
type Pool struct {
	// freeAt is each slot's release time, or forever while AcquireSlot
	// holds it open.
	freeAt []Time
	// free is a binary min-heap of the slots not held open, ordered by
	// (freeAt, index).
	free []int
}

// forever marks a slot held open by AcquireSlot.
const forever = ^Time(0)

// NewPool creates a pool with k slots, all free at time zero.
func NewPool(k int) *Pool {
	if k <= 0 {
		panic(fmt.Sprintf("sim: pool with %d slots", k))
	}
	p := &Pool{freeAt: make([]Time, k), free: make([]int, k)}
	for i := range p.free {
		p.free[i] = i // ascending indices at equal times: already a heap
	}
	return p
}

// Size returns the slot count.
func (p *Pool) Size() int { return len(p.freeAt) }

// InUse returns how many slots are busy at time at (booked past at, or
// held open by AcquireSlot). Used by the metrics sampler's queue-depth
// probes; it never mutates the pool.
func (p *Pool) InUse(at Time) int {
	busy := 0
	for _, f := range p.freeAt {
		if f > at {
			busy++
		}
	}
	return busy
}

// AcquireSlot books the earliest-free slot starting no earlier than at,
// with the release time not yet known (the slot stays busy until
// ReleaseSlot). It returns the slot index and the booked start time.
func (p *Pool) AcquireSlot(at Time) (slot int, start Time) {
	if len(p.free) == 0 {
		panic("sim: AcquireSlot with every slot held open")
	}
	slot = p.free[0]
	last := len(p.free) - 1
	p.free[0] = p.free[last]
	p.free = p.free[:last]
	p.down(0)
	start = max(at, p.freeAt[slot])
	p.freeAt[slot] = forever
	return slot, start
}

// ReleaseSlot frees a slot previously taken by AcquireSlot at time at.
func (p *Pool) ReleaseSlot(slot int, at Time) {
	if p.freeAt[slot] != forever {
		panic("sim: releasing a slot that is not held")
	}
	p.freeAt[slot] = at
	p.free = append(p.free, slot)
	p.up(len(p.free) - 1)
}

// less orders free-heap entries i and j by (freeAt, slot index).
func (p *Pool) less(i, j int) bool {
	a, b := p.free[i], p.free[j]
	return p.freeAt[a] < p.freeAt[b] || p.freeAt[a] == p.freeAt[b] && a < b
}

func (p *Pool) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(i, parent) {
			return
		}
		p.free[i], p.free[parent] = p.free[parent], p.free[i]
		i = parent
	}
}

func (p *Pool) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(p.free) {
			return
		}
		if c+1 < len(p.free) && p.less(c+1, c) {
			c++
		}
		if !p.less(c, i) {
			return
		}
		p.free[i], p.free[c] = p.free[c], p.free[i]
		i = c
	}
}

// Ticker invokes a callback periodically. It is used for host polling loops
// and the metrics sampler. The callback may stop the ticker by calling Stop.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func(Time)
	fire    func() // the one bound event closure, reused every tick
	stopped bool
}

// NewTicker starts a ticker on eng that calls fn every period picoseconds,
// with the first call one period from now. The tick closure is allocated
// once here and re-scheduled by value, so a running ticker costs zero
// allocations per tick.
//
// A tick that would be strictly earlier than every pending event is the
// very next event Step would pop, so the ticker runs it in place instead:
// it sets the clock, counts the event in Processed and calls fn. With
// nothing else pending it reschedules through the engine, so a lone
// ticker still advances one Step per tick.
func NewTicker(eng *Engine, period Time, fn func(Time)) *Ticker {
	if period == 0 {
		panic("sim: zero ticker period")
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		e := t.eng
		t.fn(e.now)
		for !t.stopped {
			tick := e.now + t.period
			if next, ok := e.nextAt(); !ok || tick >= next {
				e.After(t.period, t.fire)
				return
			}
			e.now = tick
			e.processed++
			t.fn(tick)
		}
	}
	t.eng.After(t.period, t.fire)
	return t
}

// Stop cancels future ticks. It is safe to call from within the callback.
func (t *Ticker) Stop() { t.stopped = true }

package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPeriod(t *testing.T) {
	cases := []struct {
		hz   float64
		want Time
	}{
		{1e9, 1000},    // 1 GHz -> 1 ns
		{2.5e9, 400},   // 2.5 GHz -> 400 ps
		{1.6e9, 625},   // DDR4-3200 clock
		{1e12, 1},      // 1 THz -> 1 ps
		{100e6, 10000}, // 100 MHz FPGA -> 10 ns
	}
	for _, c := range cases {
		if got := Period(c.hz); got != c.want {
			t.Errorf("Period(%v) = %d, want %d", c.hz, got, c.want)
		}
	}
}

func TestPeriodPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Period(0) did not panic")
		}
	}()
	Period(0)
}

func TestTransferTime(t *testing.T) {
	// 25 GB/s, 256 bytes -> 10.24 ns -> rounded up to 10240 ps exactly.
	if got := TransferTime(256, 25e9); got != 10240 {
		t.Errorf("TransferTime(256, 25GB/s) = %d, want 10240", got)
	}
	// Rounds up: 1 byte at 3 GB/s = 333.33 ps -> 334.
	if got := TransferTime(1, 3e9); got != 334 {
		t.Errorf("TransferTime(1, 3GB/s) = %d, want 334", got)
	}
	if got := TransferTime(0, 25e9); got != 0 {
		t.Errorf("TransferTime(0, ...) = %d, want 0", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("Processed() = %d, want 3", e.Processed())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of scheduling order at %d: %v", i, order[:i+1])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.At(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
		e.After(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran[at] = true })
	}
	e.RunUntil(25)
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("RunUntil(25) ran wrong events: %v", ran)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d after RunUntil(25)", e.Now())
	}
	e.RunUntil(e.Now() + 10)
	if !ran[30] || ran[40] {
		t.Fatalf("RunUntil(35) ran wrong events: %v", ran)
	}
	if e.Now() != 35 {
		t.Fatalf("Now() = %d after RunUntil(35)", e.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	// The same randomized schedule must replay identically.
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var order []int
		for i := 0; i < 500; i++ {
			i := i
			e.At(Time(rng.Intn(50)), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic replay at index %d", i)
		}
	}
}

func TestBusyLineSerializes(t *testing.T) {
	var b BusyLine
	s1, e1 := b.Reserve(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first reserve = [%d,%d], want [0,10]", s1, e1)
	}
	// Overlapping request queues behind the first.
	s2, e2 := b.Reserve(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second reserve = [%d,%d], want [10,20]", s2, e2)
	}
	// A late request starts immediately.
	s3, e3 := b.Reserve(100, 10)
	if s3 != 100 || e3 != 110 {
		t.Fatalf("third reserve = [%d,%d], want [100,110]", s3, e3)
	}
	if u := b.Utilization(300); u != 0.1 {
		t.Fatalf("Utilization(300) = %v, want 0.1", u)
	}
}

func TestBusyLineProperties(t *testing.T) {
	// Property: reservations never overlap and never start before requested.
	f := func(reqs []uint8) bool {
		var b BusyLine
		var at Time
		var lastEnd Time
		for _, r := range reqs {
			at += Time(r % 16)
			dur := Time(r%7 + 1)
			s, e := b.Reserve(at, dur)
			if s < at || e != s+dur || s < lastEnd {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	NewTicker(e, 100, func(now Time) { ticks = append(ticks, now) })
	e.RunUntil(350)
	if len(ticks) != 3 || ticks[0] != 100 || ticks[1] != 200 || ticks[2] != 300 {
		t.Fatalf("ticks = %v, want [100 200 300]", ticks)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = NewTicker(e, 10, func(Time) {
		n++
		if n == 5 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 5 {
		t.Fatalf("ticker fired %d times after Stop at 5", n)
	}
	if !tk.stopped {
		t.Fatal("ticker not marked stopped")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}

// book takes the earliest-free slot for [start, start+dur): AcquireSlot
// immediately followed by ReleaseSlot at the known end.
func book(p *Pool, at, dur Time) (start, end Time) {
	slot, start := p.AcquireSlot(at)
	p.ReleaseSlot(slot, start+dur)
	return start, start + dur
}

func TestPoolAcquire(t *testing.T) {
	p := NewPool(2)
	s1, e1 := book(p, 0, 10)
	s2, e2 := book(p, 0, 10)
	if s1 != 0 || s2 != 0 || e1 != 10 || e2 != 10 {
		t.Fatalf("two slots should start immediately: %d %d", s1, s2)
	}
	s3, _ := book(p, 0, 10)
	if s3 != 10 {
		t.Fatalf("third acquisition at %d, want 10", s3)
	}
	if p.HighWater != 2 {
		t.Fatalf("HighWater = %d", p.HighWater)
	}
	if p.Size() != 2 {
		t.Fatalf("Size = %d", p.Size())
	}
}

func TestPoolAcquireReleaseSlot(t *testing.T) {
	p := NewPool(1)
	slot, start := p.AcquireSlot(5)
	if start != 5 {
		t.Fatalf("start = %d", start)
	}
	p.ReleaseSlot(slot, 100)
	_, start2 := p.AcquireSlot(7)
	if start2 != 100 {
		t.Fatalf("second start = %d, want 100", start2)
	}
}

func TestPoolPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPool(0) },
		func() {
			p := NewPool(1)
			p.AcquireSlot(0)
			p.AcquireSlot(0) // every slot held open
		},
		func() {
			p := NewPool(1)
			p.ReleaseSlot(0, 10) // not held
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPoolFIFOFairness(t *testing.T) {
	// Property: with k slots and uniform durations, the i-th request starts
	// no earlier than request i-k's end.
	p := NewPool(3)
	var ends []Time
	for i := 0; i < 30; i++ {
		s, e := book(p, Time(i), 50)
		if i >= 3 && s < ends[i-3] {
			t.Fatalf("request %d started at %d before slot freed at %d", i, s, ends[i-3])
		}
		ends = append(ends, e)
	}
}

func TestBusyLineUtilizationClamped(t *testing.T) {
	// Regression: reservations extending beyond the query time used to be
	// counted in full, letting Utilization exceed 1.0 (the host polling
	// loop books future ticks). Only the booked time inside [0, now] may
	// count.
	var b BusyLine
	b.Reserve(0, 100) // [0, 100): fully past at now=50? no — straddles it
	if u := b.Utilization(50); u != 1.0 {
		t.Fatalf("Utilization(50) = %v, want 1.0 (line busy the whole window)", u)
	}
	b.Reserve(200, 1000) // [200, 1200): mostly in the future at now=250
	if u := b.Utilization(250); u != (100.0+50.0)/250.0 {
		t.Fatalf("Utilization(250) = %v, want 0.6", u)
	}
	if u := b.Utilization(1200); u != 1100.0/1200.0 {
		t.Fatalf("Utilization(1200) = %v, want %v", u, 1100.0/1200.0)
	}
}

func TestBusyLineUtilizationNeverExceedsOne(t *testing.T) {
	// Property: for any reservation pattern and any monotone query
	// sequence, utilization stays in [0, 1].
	f := func(reqs []uint16, probes []uint16) bool {
		var b BusyLine
		var at Time
		for _, r := range reqs {
			at += Time(r % 64)
			b.Reserve(at, Time(r%1024)) // durations routinely pass probes
		}
		var now Time
		for _, p := range probes {
			now += Time(p)
			u := b.Utilization(now)
			if u < 0 || u > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyLineFoldExact(t *testing.T) {
	// Many gapped reservations overflow the pending-span cap; folding must
	// not change the answer for queries at or beyond the folded spans.
	var b BusyLine
	var booked Time
	for i := 0; i < 10*busyPendingCap; i++ {
		at := Time(i) * 100
		b.Reserve(at, 30) // 30 busy, 70 idle per period
		booked += 30
	}
	end := Time(10*busyPendingCap-1)*100 + 30
	if got := b.Utilization(end); got != float64(booked)/float64(end) {
		t.Fatalf("Utilization(%d) = %v, want %v", end, got, float64(booked)/float64(end))
	}
	// Back-to-back reservations coalesce: the pending list stays at one
	// span no matter how many contiguous bookings arrive.
	var c BusyLine
	for i := 0; i < 10*busyPendingCap; i++ {
		c.Reserve(0, 10)
	}
	if len(c.pending) != 1 {
		t.Fatalf("contiguous bookings left %d pending spans, want 1", len(c.pending))
	}
	if u := c.Utilization(Time(10 * busyPendingCap * 10)); u != 1.0 {
		t.Fatalf("fully busy line utilization = %v, want 1.0", u)
	}
}

func TestPoolHighWaterInterleaved(t *testing.T) {
	// HighWater counts slots busy at acquisition time, before booking the
	// new one, across both booked and held-open slots.
	p := NewPool(3)
	book(p, 0, 100)              // busy seen: 0
	slot, _ := p.AcquireSlot(10) // busy seen: 1
	book(p, 20, 100)             // busy seen: 2
	if p.HighWater != 2 {
		t.Fatalf("HighWater = %d, want 2", p.HighWater)
	}
	p.ReleaseSlot(slot, 50)
	book(p, 60, 100) // busy seen: 2 (held slot released, two bookings live)
	if p.HighWater != 2 {
		t.Fatalf("HighWater after release = %d, want 2", p.HighWater)
	}
	book(p, 70, 100) // busy seen: 3 — every slot occupied
	if p.HighWater != 3 {
		t.Fatalf("HighWater at saturation = %d, want 3", p.HighWater)
	}
	if got := p.InUse(75); got != 3 {
		t.Fatalf("InUse(75) = %d, want 3", got)
	}
	if got := p.InUse(1000); got != 0 {
		t.Fatalf("InUse(1000) = %d, want 0", got)
	}
}

func TestPoolEarliestFreeTieBreak(t *testing.T) {
	// When several slots free at the same instant, AcquireSlot must pick
	// the lowest-indexed one so replays are deterministic.
	p := NewPool(3)
	for i := 0; i < 3; i++ {
		book(p, 0, 100) // all slots now free at 100
	}
	slot, start := p.AcquireSlot(0)
	if slot != 0 || start != 100 {
		t.Fatalf("AcquireSlot picked slot %d at %d, want slot 0 at 100", slot, start)
	}
	p.ReleaseSlot(slot, 200)
	// Booking must also prefer the earliest-free slot over later ones:
	// slot 0 frees at 200, slots 1 and 2 at 100 — ties among 1,2 go to 1.
	_, end := book(p, 0, 50)
	if end != 150 {
		t.Fatalf("booked to %d, want 150 (earliest-free slot)", end)
	}
	if p.freeAt[1] != 150 || p.freeAt[2] != 100 {
		t.Fatalf("tie broke to wrong slot: freeAt = %v", p.freeAt)
	}
}

// refPool is the reference for Pool.AcquireSlot: the original scan that
// finds the earliest-free slot and counts busy slots separately, with
// the lowest index winning ties and held slots skipped.
type refPool struct {
	freeAt    []Time
	HighWater int
}

func (p *refPool) AcquireSlot(at Time) (slot int, start Time) {
	const forever = ^Time(0)
	best := -1
	busy := 0
	for i, f := range p.freeAt {
		if f > at {
			busy++
		}
		if f == forever {
			continue
		}
		if best == -1 || f < p.freeAt[best] {
			best = i
		}
	}
	if busy > p.HighWater {
		p.HighWater = busy
	}
	if best == -1 {
		panic("sim: AcquireSlot with every slot held open")
	}
	start = at
	if p.freeAt[best] > start {
		start = p.freeAt[best]
	}
	p.freeAt[best] = forever
	return best, start
}

func (p *refPool) ReleaseSlot(slot int, at Time) { p.freeAt[slot] = at }

func (p *refPool) InUse(at Time) int {
	busy := 0
	for _, f := range p.freeAt {
		if f > at {
			busy++
		}
	}
	return busy
}

// acquirePanics reports whether acquire panicked, and its result
// otherwise.
func acquirePanics(acquire func(Time) (int, Time), at Time) (slot int, start Time, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	slot, start = acquire(at)
	return slot, start, false
}

// TestPoolMatchesReference drives Pool and the reference scan through
// the same seeded acquire/release sequences — repeating request times,
// slots held open across many steps, and full saturation — and requires
// the same slot, start, HighWater and InUse after every step, and the
// same panic when every slot is held.
func TestPoolMatchesReference(t *testing.T) {
	for _, size := range []int{1, 2, 7, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(size)))
			p := NewPool(size)
			ref := &refPool{freeAt: make([]Time, size)}
			var held []int
			var at Time
			for step := 0; step < 2000; step++ {
				if rng.Intn(3) == 0 {
					at += Time(rng.Intn(40)) // often zero: repeated times
				}
				if len(held) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(held))
					end := at + Time(rng.Intn(200))
					p.ReleaseSlot(held[k], end)
					ref.ReleaseSlot(held[k], end)
					held = append(held[:k], held[k+1:]...)
				} else {
					slot, start, panicked := acquirePanics(p.AcquireSlot, at)
					rslot, rstart, rpanicked := acquirePanics(ref.AcquireSlot, at)
					if panicked != rpanicked || slot != rslot || start != rstart {
						t.Fatalf("size %d seed %d step %d at %d: got (%d, %d, panic %v), reference (%d, %d, panic %v)",
							size, seed, step, at, slot, start, panicked, rslot, rstart, rpanicked)
					}
					if panicked != (len(held) == size) {
						t.Fatalf("size %d seed %d step %d: panic %v with %d of %d slots held", size, seed, step, panicked, len(held), size)
					}
					if !panicked {
						if rng.Intn(4) == 0 {
							held = append(held, slot) // stays held open
						} else {
							end := start + Time(rng.Intn(120))
							p.ReleaseSlot(slot, end)
							ref.ReleaseSlot(slot, end)
						}
					}
				}
				if p.HighWater != ref.HighWater || p.InUse(at) != ref.InUse(at) {
					t.Fatalf("size %d seed %d step %d: HighWater %d/%d InUse %d/%d (pool/reference)",
						size, seed, step, p.HighWater, ref.HighWater, p.InUse(at), ref.InUse(at))
				}
			}
		}
	}
}

package sim

import (
	"container/heap"
	"testing"
)

// kernel is the engine surface the fast-path script drives, so the same
// script runs on Engine and on refEngine.
type kernel interface {
	Now() Time
	Processed() uint64
	At(t Time, fn func())
	After(d Time, fn func())
	Run()
	NewTicker(period Time, fn func(Time)) interface{ Stop() }
}

// realKernel adapts Engine and its Ticker to kernel.
type realKernel struct{ *Engine }

func (k realKernel) NewTicker(period Time, fn func(Time)) interface{ Stop() } {
	return NewTicker(k.Engine, period, fn)
}

// refEngine is the event kernel without its fast paths: every event goes
// through a container/heap queue, and a ticker reschedules every tick as
// an event. Engine must execute any script exactly as it does.
type refEngine struct {
	now       Time
	seq       uint64
	events    stdEventHeap
	processed uint64
}

func (e *refEngine) Now() Time         { return e.now }
func (e *refEngine) Processed() uint64 { return e.processed }

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		panic("refEngine: scheduling in the past")
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d Time, fn func()) { e.At(e.now+d, fn) }

func (e *refEngine) Run() {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		e.processed++
		ev.fn()
	}
}

type refTicker struct{ stopped bool }

func (t *refTicker) Stop() { t.stopped = true }

func (e *refEngine) NewTicker(period Time, fn func(Time)) interface{ Stop() } {
	t := &refTicker{}
	var fire func()
	fire = func() {
		if t.stopped {
			return
		}
		fn(e.now)
		if !t.stopped {
			e.After(period, fire)
		}
	}
	e.After(period, fire)
	return t
}

// stamp is one callback execution: who ran, and the clock it saw.
type stamp struct {
	id  int
	now Time
}

// Callback ids of the script's fixed participants; actors use ids >= 0.
const (
	idTickA = -1 - iota
	idTickB
	idStopB
)

// runScript drives k through a seeded schedule: actors that schedule
// children from inside their callbacks (same instant, At a few ps ahead,
// or After a short delay, so ties and front evictions are common), ticker
// A that schedules actors from its ticks and stops itself inside a tick,
// and ticker B with another period that a scheduled event stops. It
// returns every callback in execution order.
func runScript(k kernel, seed uint64) []stamp {
	rng := lcg(seed)
	var log []stamp
	budget := 300
	var actor func(id int) func()
	spawn := func() func() {
		budget--
		return actor(budget)
	}
	actor = func(id int) func() {
		return func() {
			log = append(log, stamp{id, k.Now()})
			for n := rng.next() % 3; n > 0 && budget > 0; n-- {
				switch rng.next() % 4 {
				case 0:
					k.After(0, spawn())
				case 1:
					k.At(k.Now()+Time(rng.next()%8), spawn())
				default:
					k.After(Time(rng.next()%40)+1, spawn())
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		k.At(Time(rng.next()%16), spawn())
	}
	periodA, periodB := Time(rng.next()%9)+3, Time(rng.next()%13)+5
	stopA := int(rng.next()%60) + 1
	ticksA := 0
	var ta interface{ Stop() }
	ta = k.NewTicker(periodA, func(now Time) {
		log = append(log, stamp{idTickA, now})
		if rng.next()%4 == 0 && budget > 0 {
			k.After(Time(rng.next()%(2*periodA)), spawn())
		}
		if ticksA++; ticksA == stopA {
			ta.Stop()
		}
	})
	// B's stop event comes before its 81st tick; the cap ends the run on
	// an engine that loses that event instead of ticking forever.
	ticksB := 0
	var tb interface{ Stop() }
	tb = k.NewTicker(periodB, func(now Time) {
		log = append(log, stamp{idTickB, now})
		if ticksB++; ticksB == 200 {
			tb.Stop()
		}
	})
	k.At(Time(rng.next()%400)+1, func() {
		log = append(log, stamp{idStopB, k.Now()})
		tb.Stop()
	})
	k.Run()
	return log
}

// TestFastPathsMatchHeapOnlyEngine runs seeded scripts on Engine and on
// the heap-only refEngine and requires the same callbacks in the same
// order, each at the same Now(), and the same Processed(): the front
// register and inline ticks must be invisible.
func TestFastPathsMatchHeapOnlyEngine(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		eng, ref := NewEngine(), &refEngine{}
		got, want := runScript(realKernel{eng}, seed), runScript(ref, seed)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: callback %d = %+v, heap-only engine ran %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d callbacks, heap-only engine ran %d", seed, len(got), len(want))
		}
		if eng.Processed() != ref.Processed() || eng.Now() != ref.Now() {
			t.Fatalf("seed %d: processed %d at %d, heap-only engine %d at %d",
				seed, eng.Processed(), eng.Now(), ref.Processed(), ref.Now())
		}
	}
}

// TestInlineTicksStopAtPendingEvent gives a ticker one other event, a stop
// at time at, and requires Run to return after exactly the ticks before
// at: ⌊at/period⌋, less the tick at at itself when at is a multiple of the
// period (the stop was scheduled first, so it wins the tie). Processed
// counts every tick, the stop and the stopped ticker's last event.
func TestInlineTicksStopAtPendingEvent(t *testing.T) {
	for _, period := range []Time{1, 7, 100} {
		for _, at := range []Time{1, 6, 7, 8, 99, 100, 101, 1000, 12345} {
			eng := NewEngine()
			var tk *Ticker
			eng.At(at, func() { tk.Stop() })
			ticks := Time(0)
			tk = NewTicker(eng, period, func(Time) {
				if ticks++; ticks > at/period { // the stop event was lost
					tk.Stop()
				}
			})
			eng.Run()
			want := at / period
			if at%period == 0 {
				want--
			}
			if ticks != want {
				t.Errorf("period %d, stop at %d: %d ticks, want %d", period, at, ticks, want)
			}
			if eng.Processed() != uint64(want)+2 || eng.Now() != (want+1)*period {
				t.Errorf("period %d, stop at %d: processed %d at %d, want %d at %d",
					period, at, eng.Processed(), eng.Now(), want+2, (want+1)*period)
			}
		}
	}
}

// TestLoneTickerStepsOnePerTick checks that with nothing else pending a
// ticker reschedules through the engine instead of ticking in place, so
// Step returns after one tick and a driver that checks its own state
// between steps (cores.Group.Run) sees every tick as its own step.
func TestLoneTickerStepsOnePerTick(t *testing.T) {
	eng := NewEngine()
	ticks := 0
	var tk *Ticker
	tk = NewTicker(eng, 10, func(Time) {
		if ticks++; ticks == 5 {
			tk.Stop()
		}
	})
	for i := 1; i <= 5; i++ {
		if !eng.Step() || ticks != i || eng.Now() != Time(i)*10 {
			t.Fatalf("step %d: %d ticks at %d, want %d at %d", i, ticks, eng.Now(), i, i*10)
		}
	}
	if eng.Step() {
		t.Fatal("a stopped lone ticker left more than one event behind")
	}
}

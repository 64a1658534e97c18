package sim

import (
	"sort"
	"testing"
)

// lcg is the deterministic generator the heap tests derive schedules from.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

// TestHeapMatchesReferenceSort pushes a batch full of duplicate
// timestamps and checks that draining the 4-ary heap yields exactly the
// (at, seq) order a stable reference sort produces. This is the
// determinism contract: FIFO among events scheduled for the same
// instant, regardless of heap shape.
func TestHeapMatchesReferenceSort(t *testing.T) {
	rng := lcg(42)
	var h eventHeap
	var ref []event
	for i := 0; i < 2000; i++ {
		// Timestamps drawn from a tiny range so same-instant collisions
		// are common.
		ev := event{at: Time(rng.next() % 8), seq: uint64(i + 1)}
		h.push(ev)
		ref = append(ref, ev)
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
	for i := range ref {
		got := h.pop()
		if got.at != ref[i].at || got.seq != ref[i].seq {
			t.Fatalf("pop %d = (at=%d, seq=%d), want (at=%d, seq=%d)",
				i, got.at, got.seq, ref[i].at, ref[i].seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d events left after draining", len(h))
	}
}

// TestHeapInterleavedAgainstShadow interleaves pushes and pops and checks
// every pop against a shadow multiset: the popped event must be the
// (at, seq)-minimum of exactly the events currently in the heap.
func TestHeapInterleavedAgainstShadow(t *testing.T) {
	rng := lcg(7)
	var h eventHeap
	var shadow []event
	var seq uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			seq++
			ev := event{at: Time(rng.next() % 8), seq: seq}
			h.push(ev)
			shadow = append(shadow, ev)
		}
		for i := 0; i < 25 && len(h) > 0; i++ {
			got := h.pop()
			min := 0
			for j := 1; j < len(shadow); j++ {
				if shadow[j].before(&shadow[min]) {
					min = j
				}
			}
			if got.at != shadow[min].at || got.seq != shadow[min].seq {
				t.Fatalf("round %d pop %d = (at=%d, seq=%d), shadow min (at=%d, seq=%d)",
					round, i, got.at, got.seq, shadow[min].at, shadow[min].seq)
			}
			shadow[min] = shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
		}
	}
	if len(h) != len(shadow) {
		t.Fatalf("heap has %d events, shadow %d", len(h), len(shadow))
	}
}

// TestEngineSameInstantFIFO checks the contract end to end through the
// Engine: callbacks scheduled for one instant run in scheduling order,
// including events scheduled from within a callback at the current time.
func TestEngineSameInstantFIFO(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(100, func() {
			order = append(order, i)
			if i == 3 {
				// Scheduled at the running instant: runs after every
				// already-scheduled t=100 event, before t=101.
				eng.After(0, func() { order = append(order, 100) })
			}
		})
	}
	eng.At(101, func() { order = append(order, 101) })
	eng.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101}
	if len(order) != len(want) {
		t.Fatalf("ran %d callbacks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestTickerReusesEvent checks ticker behavior across many ticks with the
// reused fire closure: ticks land on exact period multiples, Stop from
// inside the callback halts future ticks, and a stopped ticker scheduled
// event that already sits in the heap is a no-op when it fires.
func TestTickerReusesEvent(t *testing.T) {
	eng := NewEngine()
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(eng, 10, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			tk.Stop()
		}
	})
	eng.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticked at %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticked at %v, want %v", ticks, want)
		}
	}
	if !tk.stopped {
		t.Fatal("ticker not stopped")
	}
}

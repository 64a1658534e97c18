package cores

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestChunkedStreamStats runs a thread whose op stream between two
// barriers spans more than three chunks and ends one op into a fresh
// chunk, next to a short one, and checks every ThreadStats field against
// the values the per-op handoff produced for the same bodies. It also
// checks that the buffer never grows past opChunk.
func TestChunkedStreamStats(t *testing.T) {
	const long = 769
	if long <= 3*opChunk || long%opChunk != 1 {
		t.Fatalf("stream of %d ops is not 3+ full chunks plus one op at opChunk=%d", long, opChunk)
	}
	g := NewGroup(sim.NewEngine(), DefaultConfig(), newFake())
	var maxLen, maxCap int
	body := func(n int) func(*Ctx) {
		return func(c *Ctx) {
			c.Compute(10)
			c.Barrier()
			for i := 0; i < n; i++ {
				addr := uint64(i) * 64
				switch i % 7 {
				case 0, 3:
					c.Load(addr, 8)
				case 1:
					c.Store(addr, 8)
				case 2:
					c.Load(1<<30+addr, 64)
				case 4:
					c.Compute(uint64(i % 13))
				case 5:
					c.LoadDep(addr, 8)
				case 6:
					c.ScatterStore(addr, 4096, 3)
				}
				maxLen = max(maxLen, len(c.t.buf))
				maxCap = max(maxCap, cap(c.t.buf))
			}
			c.Barrier()
			c.Compute(5)
		}
	}
	g.Spawn(0, 0, body(long))
	g.Spawn(1, 1, body(40))
	if got := g.Run(); got != 27627600 {
		t.Errorf("makespan %d, want 27627600", got)
	}
	want := []ThreadStats{
		{Finish: 27627600, IDCStall: 21550000, LocalStall: 5500000, Ops: 659, RemoteOps: 110, BytesTouched: 31488},
		{Finish: 27627600, IDCStall: 27340800, LocalStall: 250000, Ops: 34, RemoteOps: 6, BytesTouched: 1528},
	}
	for i, st := range g.Stats() {
		if st != want[i] {
			t.Errorf("thread %d stats %+v, want %+v", i, st, want[i])
		}
	}
	if maxLen > opChunk || maxCap > opChunk {
		t.Errorf("op buffer reached len %d cap %d, bound %d", maxLen, maxCap, opChunk)
	}
}

// TestBodiesNeverOverlap checks that at most one workload body runs at a
// time: every body holds an in-body counter while it issues ops, with
// enough Ps that overlapping goroutines would be scheduled in parallel.
// Run it under -race as well: the shared counter in plain memory would
// report a race if two bodies ever ran unsynchronized.
func TestBodiesNeverOverlap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var inside atomic.Int32
	var overlaps atomic.Int32
	shared := 0
	g := NewGroup(sim.NewEngine(), DefaultConfig(), newFake())
	for i := 0; i < 8; i++ {
		i := i
		g.Spawn(i, i, func(c *Ctx) {
			for r := 0; r < 3; r++ {
				for k := 0; k < opChunk+50; k++ {
					if inside.Add(1) != 1 {
						overlaps.Add(1)
					}
					shared++
					runtime.Gosched()
					inside.Add(-1)
					c.Load(uint64(i*4096+k*64), 8)
				}
				c.Barrier()
			}
		})
	}
	g.Run()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d body steps overlapped another body", n)
	}
	if want := 8 * 3 * (opChunk + 50); shared != want {
		t.Fatalf("shared counter %d, want %d", shared, want)
	}
}

// TestMismatchedRendezvousDeadlocks pins the deadlock diagnosis: one
// thread waits at a barrier while the other waits at a collective, so
// neither rendezvous can complete and the driver runs out of events.
func TestMismatchedRendezvousDeadlocks(t *testing.T) {
	g := NewGroup(sim.NewEngine(), DefaultConfig(), newFake())
	g.Spawn(0, 0, func(c *Ctx) { c.Barrier() })
	g.Spawn(1, 1, func(c *Ctx) { c.AllReduce(64) })
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "deadlock with 2 threads unfinished") {
			t.Fatalf("panic %v, want the deadlock message", r)
		}
	}()
	g.Run()
	t.Fatal("Run returned on mismatched rendezvous")
}

// TestWindowRingWraps drives a 3-slot issue window through more than
// 2×Window memory ops per thread — local and remote loads whose
// completions arrive out of issue order, stores, scatters, dependent
// loads and drains — so the ring wraps many times, and checks the
// makespan and every ThreadStats field against the values the
// slice-based window produced for the same bodies.
func TestWindowRingWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 3
	g := NewGroup(sim.NewEngine(), cfg, newFake())
	body := func(n int) func(*Ctx) {
		return func(c *Ctx) {
			for i := 0; i < n; i++ {
				addr := uint64(i) * 64
				switch i % 11 {
				case 0, 4, 8:
					c.Load(1<<30+addr, 64) // remote: completes late
				case 1, 2, 6:
					c.Load(addr, 8)
				case 3:
					c.Store(addr, 8)
				case 5:
					c.ScatterLoad(addr, 4096, 2)
				case 7:
					c.LoadDep(1<<30+addr, 8)
				case 9:
					c.ScatterStore(addr, 4096, 5)
				case 10:
					if i%3 == 0 {
						c.Drain()
					}
					c.Compute(uint64(i % 7))
				}
			}
			c.Drain()
		}
	}
	g.Spawn(0, 0, body(100))
	g.Spawn(1, 1, body(37))
	if got := g.Run(); got != 15757200 {
		t.Errorf("makespan %d, want 15757200", got)
	}
	want := []ThreadStats{
		{Finish: 15757200, IDCStall: 15261200, LocalStall: 435600, Ops: 91, RemoteOps: 37, BytesTouched: 6184},
		{Finish: 5604800, IDCStall: 5388800, LocalStall: 194800, Ops: 34, RemoteOps: 13, BytesTouched: 2128},
	}
	for i, st := range g.Stats() {
		if st != want[i] {
			t.Errorf("thread %d stats %+v, want %+v", i, st, want[i])
		}
	}
	for i, th := range g.threads {
		if len(th.win) != cfg.Window || th.n != 0 {
			t.Errorf("thread %d window: %d slots, %d outstanding after the run, want %d and 0", i, len(th.win), th.n, cfg.Window)
		}
	}
}

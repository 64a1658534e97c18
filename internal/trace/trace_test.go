package trace

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
	"repro/internal/sim"
)

func TestRecorderCapturesAccesses(t *testing.T) {
	sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
	var rec *Recorder
	sys.InstrumentMemory(func(inner cores.Memory) cores.Memory {
		rec = NewRecorder(inner, 4, nmp.NMPClockHz)
		return rec
	})
	seg := sys.Space.MustAllocOn("x", 4096, 0, mem.SharedRW)
	g := sys.NewGroup()
	g.Spawn(0, 0, func(c *cores.Ctx) {
		c.LoadDep(seg.Addr(0), 64)
		c.Compute(100)
		c.Store(seg.Addr(64), 64)
		c.Drain()
	})
	g.Run()
	sys.Stop()
	if len(rec.Trace.Records) != 2 {
		t.Fatalf("records = %d", len(rec.Trace.Records))
	}
	if rec.Trace.Records[1].Gap == 0 {
		t.Fatal("compute gap not recorded")
	}
	if !rec.Trace.Records[1].Write {
		t.Fatal("write not recorded")
	}
}

func TestReplayRuns(t *testing.T) {
	sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
	seg := sys.Space.MustAllocOn("buf", 1<<16, 1, mem.SharedRW)
	tr := &Trace{Threads: 2}
	for i := uint64(0); i < 50; i++ {
		tr.Records = append(tr.Records, Record{
			Thread: int(i % 2), Addr: seg.Addr(i * 64), Size: 64,
			Write: i%3 == 0, Gap: 20,
		})
	}
	rp := &Replay{T: tr}
	place := sys.DefaultPlacement()
	res, n, _ := rp.Run(sys, place, false)
	if n != 50 || res.Makespan == 0 {
		t.Fatalf("replay: n=%d makespan=%d", n, res.Makespan)
	}
	// The buffer lives on DIMM 1; threads on DIMM 0 reached it via IDC.
	if sys.IC.Counters().Get("remote.reads") == 0 && sys.IC.Counters().Get("remote.writes") == 0 {
		t.Fatal("replay produced no IDC traffic")
	}
}

func TestRecorderReplayEquivalence(t *testing.T) {
	// Record a small kernel, replay it on a fresh identical system, and
	// check the DRAM traffic matches to first order.
	build := func() (*nmp.System, *mem.Segment) {
		sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
		seg := sys.Space.MustAllocOn("d", 1<<16, 0, mem.SharedRW)
		return sys, seg
	}
	sysA, segA := build()
	var rec *Recorder
	sysA.InstrumentMemory(func(inner cores.Memory) cores.Memory {
		rec = NewRecorder(inner, 4, nmp.NMPClockHz)
		return rec
	})
	g := sysA.NewGroup()
	g.Spawn(0, 0, func(c *cores.Ctx) {
		for i := uint64(0); i < 100; i++ {
			c.Load(segA.Addr(i*64), 64)
		}
		c.Drain()
	})
	g.Run()
	sysA.Stop()

	sysB, _ := build()
	rp := &Replay{T: &rec.Trace}
	rp.Run(sysB, []int{0}, false)
	readsA := sysA.Modules[0].Stats.Reads
	readsB := sysB.Modules[0].Stats.Reads
	if readsB < readsA {
		t.Fatalf("replay reads %d < recorded reads %d", readsB, readsA)
	}
	_ = sim.Time(0)
}

// TestReplayReportsFirstBadRecord checks that a bad record after valid
// ones is reported with its index and the same message as before the
// index-split replay, that the first bad record wins, and that no
// simulated work starts.
func TestReplayReportsFirstBadRecord(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  Record
		want string
	}{
		{"negative thread", Record{Thread: -3, Size: 64}, "trace: record 5: negative thread -3"},
		{"zero size", Record{Thread: 1, Addr: 64}, "trace: record 5: zero-size access"},
		{"past capacity", Record{Thread: 1, Addr: 4 << 28, Size: 64},
			"trace: record 5: addr 0x40000000 + size 64 beyond system capacity 0x40000000"},
		{"overflow", Record{Thread: 1, Addr: ^uint64(0) - 7, Size: 64},
			"trace: record 5: addr 0xfffffffffffffff8 + size 64 beyond system capacity 0x40000000"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
			tr := &Trace{Threads: 2}
			for i := uint64(0); i < 5; i++ {
				tr.Records = append(tr.Records, Record{Thread: int(i % 2), Addr: i * 64, Size: 64})
			}
			tr.Records = append(tr.Records, c.bad, Record{Thread: -1, Size: 0})
			_, n, err := (&Replay{T: tr}).Run(sys, sys.DefaultPlacement(), false)
			if err == nil || err.Error() != c.want {
				t.Fatalf("error %v, want %q", err, c.want)
			}
			if n != 0 || sys.Eng.Processed() != 0 {
				t.Fatalf("bad trace replayed %d records, %d events", n, sys.Eng.Processed())
			}
		})
	}
}

// TestReplayPreservesPerThreadOrder replays a trace whose thread IDs wrap
// around the placement and checks that each simulated core issues exactly
// its placement slot's records, in trace order.
func TestReplayPreservesPerThreadOrder(t *testing.T) {
	sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
	place := sys.DefaultPlacement()
	var rec *Recorder
	sys.InstrumentMemory(func(inner cores.Memory) cores.Memory {
		rec = NewRecorder(inner, len(place), nmp.NMPClockHz)
		return rec
	})
	rng := rand.New(rand.NewSource(7))
	tr := &Trace{Threads: 40}
	want := make([][]uint64, len(place)) // per slot, addresses in trace order
	slotOf := map[uint64]int{}
	for i := uint64(0); i < 2000; i++ {
		r := Record{Thread: rng.Intn(40), Addr: i * 64, Size: 64, Write: rng.Intn(4) == 0, Gap: uint64(rng.Intn(8))}
		tr.Records = append(tr.Records, r)
		slot := r.Thread % len(place)
		want[slot] = append(want[slot], r.Addr)
		slotOf[r.Addr] = slot
	}
	if _, n, err := (&Replay{T: tr}).Run(sys, place, false); err != nil || n != 2000 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	got := map[int][]uint64{} // per core, addresses in issue order
	for _, r := range rec.Trace.Records {
		got[r.Thread] = append(got[r.Thread], r.Addr)
	}
	seen := map[int]bool{}
	for core, addrs := range got {
		slot := slotOf[addrs[0]]
		if seen[slot] {
			t.Fatalf("slot %d replayed on two cores", slot)
		}
		seen[slot] = true
		if !slices.Equal(addrs, want[slot]) {
			t.Fatalf("core %d (slot %d) issued %d records out of trace order or incomplete (want %d)", core, slot, len(addrs), len(want[slot]))
		}
	}
	for slot, addrs := range want {
		if len(addrs) > 0 && !seen[slot] {
			t.Fatalf("slot %d's %d records never replayed", slot, len(addrs))
		}
	}
}

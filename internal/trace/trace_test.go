package trace

import (
	"testing"

	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
	"repro/internal/sim"
)

func TestRecorderCapturesAccesses(t *testing.T) {
	sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
	rec := NewRecorder(sys.Memory(), 4, 2.5e9)
	seg := sys.Space.MustAllocOn("x", 4096, 0, mem.SharedRW)
	g := cores.NewGroup(sys.Eng, sys.Cfg.NMPCore, rec)
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
	rec := NewRecorder(sysA.Memory(), 4, 2.5e9)
	g := cores.NewGroup(sysA.Eng, sysA.Cfg.NMPCore, rec)
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

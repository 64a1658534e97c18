package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
)

func testModules(geo mem.Geometry) []*dram.Module {
	ms := make([]*dram.Module, geo.NumDIMMs)
	for i := range ms {
		ms[i] = dram.New(geo, false, i)
	}
	return ms
}

func TestByteBufferAdmitsWhenSpaceFrees(t *testing.T) {
	b := newByteBuffer(100)
	// Fill the buffer with an entry held until t=1000.
	end := b.holdWith(0, 100, func(admit sim.Time) sim.Time {
		if admit != 0 {
			t.Fatalf("first admit at %d", admit)
		}
		return 1000
	})
	if end != 1000 {
		t.Fatalf("end = %d", end)
	}
	// The next entry cannot enter before 1000.
	b.holdWith(10, 50, func(admit sim.Time) sim.Time {
		if admit != 1000 {
			t.Fatalf("second admit at %d, want 1000", admit)
		}
		return 1200
	})
	if b.occupied != 50 {
		t.Fatalf("occupied = %d, want 50 (first entry released)", b.occupied)
	}
}

func TestByteBufferConcurrentEntriesFit(t *testing.T) {
	b := newByteBuffer(100)
	for i := sim.Time(0); i < 4; i++ {
		i := i
		b.holdWith(i, 25, func(admit sim.Time) sim.Time {
			if admit != i {
				t.Fatalf("entry %d delayed to %d", i, admit)
			}
			return 500
		})
	}
	if b.occupied != 100 {
		t.Fatalf("occupied = %d, want 100", b.occupied)
	}
}

func TestByteBufferOversizeEntryCutsThrough(t *testing.T) {
	b := newByteBuffer(64)
	b.holdWith(0, 1<<20, func(admit sim.Time) sim.Time {
		if admit != 0 {
			t.Fatalf("oversize admit at %d", admit)
		}
		return 100
	})
}

func TestControllerTagExhaustion(t *testing.T) {
	c := newController(0, 2)
	s1, t1 := c.AcquireTag(0)
	s2, t2 := c.AcquireTag(0)
	if t1 != 0 || t2 != 0 {
		t.Fatalf("first two tags delayed: %d %d", t1, t2)
	}
	// Third transaction must wait for a release.
	c.ReleaseTag(s1, 500)
	_, t3 := c.AcquireTag(0)
	if t3 != 500 {
		t.Fatalf("third tag at %d, want 500", t3)
	}
	c.ReleaseTag(s2, 900)
}

func TestTagPressureDelaysTransactions(t *testing.T) {
	// A DIMM with a single transaction tag serializes its remote reads.
	mk := func(tags int) sim.Time {
		eng := sim.NewEngine()
		geo := geoN(4, 2)
		modules := testModules(geo)
		l := mustNewLink(eng, geo, modules, host.BasePolling, DefaultConfig())
		for d := range l.ctrl {
			l.ctrl[d] = newController(d, tags)
		}
		var last sim.Time
		for i := 0; i < 8; i++ {
			if done := l.Access(0, 0, l.geo.DIMMBase(1)+uint64(i)*4096, 64, false); done > last {
				last = done
			}
		}
		return last
	}
	one := mk(1)
	many := mk(64)
	if one <= many {
		t.Fatalf("single tag (%d) should be slower than 64 tags (%d)", one, many)
	}
}

func TestCXLTransportAvoidsHost(t *testing.T) {
	eng := sim.NewEngine()
	geo := geoN(8, 4)
	modules := testModules(geo)
	cfg := DefaultConfig()
	cfg.InterGroup = ViaCXL
	l := mustNewLink(eng, geo, modules, host.BasePolling, cfg)
	done := l.Access(0, 0, l.geo.DIMMBase(6), 4096, false) // cross-blade read
	if l.host.Counters.Get("host.forwards") != 0 || l.host.Counters.Get("host.polls") != 0 {
		t.Fatal("CXL transport used the host")
	}
	if l.Counters().Get("cxl.bytes") == 0 {
		t.Fatal("no CXL bytes counted")
	}
	// No polling interval in the path: far faster than the host route.
	hostCfg := DefaultConfig()
	lh := mustNewLink(sim.NewEngine(), geo, testModules(geo), host.BasePolling, hostCfg)
	hostDone := lh.Access(0, 0, lh.geo.DIMMBase(6), 4096, false)
	if done >= hostDone {
		t.Fatalf("CXL cross-blade read (%d) should beat host forwarding (%d)", done, hostDone)
	}
	// But it is still slower than an intra-blade link hop.
	intra := l.Access(0, 0, l.geo.DIMMBase(1), 4096, false)
	if intra >= done {
		t.Fatalf("intra-blade (%d) should beat cross-blade (%d)", intra, done)
	}
}

func TestCXLBroadcastAndBarrier(t *testing.T) {
	eng := sim.NewEngine()
	geo := geoN(8, 4)
	modules := testModules(geo)
	cfg := DefaultConfig()
	cfg.InterGroup = ViaCXL
	l := mustNewLink(eng, geo, modules, host.BasePolling, cfg)
	if done := l.Broadcast(0, 0, l.geo.DIMMBase(0), 1024); done == 0 {
		t.Fatal("broadcast returned zero")
	}
	arr := []sim.Time{0, 0, 0, 0}
	dimms := []int{0, 2, 5, 7}
	if rel := l.Barrier(arr, dimms); rel == 0 {
		t.Fatal("barrier returned zero")
	}
	if l.host.Counters.Get("host.forwards") != 0 {
		t.Fatal("CXL sync used the host")
	}
}

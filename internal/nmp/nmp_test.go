package nmp

import (
	"strings"
	"testing"

	"repro/internal/cores"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestNewSystemAllMechanisms(t *testing.T) {
	for _, mech := range []Mechanism{MechDIMMLink, MechMCN, MechAIM, MechABCDIMM, MechHostCPU} {
		s, err := NewSystem(DefaultConfig(8, 4, mech))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if mech != MechHostCPU && s.IC == nil {
			t.Fatalf("%s: nil interconnect", mech)
		}
		if mech == MechDIMMLink && s.Link == nil {
			t.Fatal("DIMM-Link system missing Link handle")
		}
		if mech == MechAIM && s.Host() != nil {
			t.Fatal("AIM should not build a host")
		}
	}
}

func TestUnknownMechanismRejected(t *testing.T) {
	cfg := DefaultConfig(4, 2, Mechanism("bogus"))
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bogus mechanism accepted")
	}
}

// TestChannelsMustDivideDIMMs pins that a system whose channels do not
// divide its DIMMs is a construction error on every mechanism, so
// ABC-DIMM's broadcast never sees a partly populated channel.
func TestChannelsMustDivideDIMMs(t *testing.T) {
	for _, mech := range []Mechanism{MechDIMMLink, MechMCN, MechAIM, MechABCDIMM, MechHostCPU} {
		_, err := NewSystem(DefaultConfig(6, 4, mech))
		if err == nil || !strings.Contains(err.Error(), "NumChannels 4 must divide NumDIMMs 6") {
			t.Errorf("%s on 6D-4C: err = %v, want the channel-count error", mech, err)
		}
	}
}

// TestProxyPollingNeedsProxies pins that a proxy polling mode is an error
// on every mechanism but DIMM-Link, the only one with polling proxies,
// and that the base modes build everywhere.
func TestProxyPollingNeedsProxies(t *testing.T) {
	for _, mech := range []Mechanism{MechDIMMLink, MechMCN, MechAIM, MechABCDIMM, MechHostCPU} {
		for _, mode := range []host.PollingMode{host.BasePolling, host.BaseInterrupt, host.ProxyPolling, host.ProxyInterrupt} {
			cfg := DefaultConfig(8, 4, mech)
			cfg.Host = mode
			_, err := NewSystem(cfg)
			proxy := mode == host.ProxyPolling || mode == host.ProxyInterrupt
			switch {
			case proxy && mech != MechDIMMLink:
				if err == nil || !strings.Contains(err.Error(), "polling mode "+mode.String()) {
					t.Errorf("%s with %v: err = %v, want a polling-mode error", mech, mode, err)
				}
			case err != nil:
				t.Errorf("%s with %v: %v", mech, mode, err)
			}
		}
	}
}

func TestDefaultPlacementBlocks(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	p := s.DefaultPlacement()
	if len(p) != 16 {
		t.Fatalf("threads = %d", len(p))
	}
	for i, d := range p {
		if d != i/4 {
			t.Fatalf("thread %d on DIMM %d, want %d", i, d, i/4)
		}
	}
	h := MustNewSystem(DefaultConfig(4, 2, MechHostCPU))
	for _, d := range h.DefaultPlacement() {
		if d != -1 {
			t.Fatal("host placement should be -1")
		}
	}
}

func TestLocalAccessUsesCaches(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	seg := s.Space.MustAllocOn("x", 4096, 0, mem.Private)
	res := s.RunKernel(false, func(g *cores.Group) {
		if err := s.SpawnPlaced(g, []int{0}, func(tid int, c *cores.Ctx) {
			c.LoadDep(seg.Addr(0), 8) // cold miss
			c.LoadDep(seg.Addr(8), 8) // L1 hit
		}); err != nil {
			t.Error(err)
		}
	})
	l1, _ := s.CacheStats()
	if l1.Hits != 1 || l1.Misses != 1 {
		t.Fatalf("L1 stats %+v", l1)
	}
	if res.ThreadStats[0].RemoteOps != 0 {
		t.Fatal("local access counted as remote")
	}
}

func TestRemoteAccessGoesThroughIC(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	seg := s.Space.MustAllocOn("y", 4096, 3, mem.SharedRW)
	res := s.RunKernel(false, func(g *cores.Group) {
		s.SpawnPlaced(g, []int{0}, func(tid int, c *cores.Ctx) {
			c.LoadDep(seg.Addr(0), 64)
		})
	})
	if res.ThreadStats[0].RemoteOps != 1 {
		t.Fatal("remote access not routed through IC")
	}
	if s.IC.Counters().Get("remote.reads") != 1 {
		t.Fatal("IC did not see the read")
	}
	if res.IDCStallRatio() == 0 {
		t.Fatal("IDC stall not attributed")
	}
}

func TestSharedRWBypassesCache(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	seg := s.Space.MustAllocOn("rw", 4096, 0, mem.SharedRW)
	s.RunKernel(false, func(g *cores.Group) {
		s.SpawnPlaced(g, []int{0}, func(tid int, c *cores.Ctx) {
			c.LoadDep(seg.Addr(0), 8)
			c.LoadDep(seg.Addr(0), 8)
		})
	})
	l1, _ := s.CacheStats()
	if l1.Hits+l1.Misses != 0 {
		t.Fatalf("shared-rw data hit the cache: %+v", l1)
	}
}

func TestDirtyCacheFlushedAtKernelEnd(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	seg := s.Space.MustAllocOn("d", 4096, 0, mem.Private)
	res := s.RunKernel(false, func(g *cores.Group) {
		s.SpawnPlaced(g, []int{0}, func(tid int, c *cores.Ctx) {
			c.Store(seg.Addr(0), 8)
			c.Drain()
		})
	})
	// The dirty L1 line must be written back after the threads finish.
	if s.Modules[0].Stats.Writes == 0 {
		t.Fatal("no write-back reached DRAM")
	}
	if res.Makespan == 0 {
		t.Fatal("zero makespan")
	}
}

func TestSpawnPlacedOversubscription(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	g := s.NewGroup()
	err := s.SpawnPlaced(g, []int{0, 0, 0, 0, 0}, func(int, *cores.Ctx) {})
	if err == nil {
		t.Fatal("5 threads on one 4-core DIMM accepted")
	}
	// Drain the 4 successfully spawned threads so their goroutines exit.
	g.Run()
}

func TestSpawnPlacedRejectsHostOnNMP(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechMCN))
	g := s.NewGroup()
	if err := s.SpawnPlaced(g, []int{-1}, func(int, *cores.Ctx) {}); err == nil {
		t.Fatal("host placement accepted on NMP system")
	}
}

func TestHostBaselineRuns(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechHostCPU))
	segs := make([]*mem.Segment, s.Threads())
	for i := range segs {
		segs[i] = s.Space.MustAllocOn("data", 4096, i%4, mem.Private)
	}
	res := s.RunKernel(false, func(g *cores.Group) {
		place := s.DefaultPlacement()
		s.SpawnPlaced(g, place, func(tid int, c *cores.Ctx) {
			for i := uint64(0); i < 4096; i += 64 {
				c.Load(segs[tid].Addr(i), 64)
			}
			c.Barrier()
		})
	})
	if res.Makespan == 0 {
		t.Fatal("host kernel did not run")
	}
	for _, st := range res.ThreadStats {
		if st.RemoteOps != 0 {
			t.Fatal("host accesses must not count as IDC")
		}
	}
}

func TestNMPBeatsHostOnBandwidthBoundKernel(t *testing.T) {
	// The core NMP premise: aggregate rank bandwidth across DIMMs beats the
	// host's channel-limited bandwidth on a streaming kernel. 4 DIMMs here,
	// purely local streams.
	run := func(mech Mechanism) sim.Time {
		s := MustNewSystem(DefaultConfig(4, 2, mech))
		segs := make([]*mem.Segment, s.Threads())
		res := s.RunKernel(false, func(g *cores.Group) {
			place := s.DefaultPlacement()
			for i := range segs {
				d := s.PartitionDIMM(i)
				if mech == MechHostCPU {
					d = i % 4
				}
				segs[i] = s.Space.MustAllocOn(
					"part", 1<<18, d, mem.Private)
			}
			s.SpawnPlaced(g, place, func(tid int, c *cores.Ctx) {
				seg := segs[tid]
				for off := uint64(0); off < seg.Size; off += 4096 {
					c.Load(seg.Addr(off), 4096)
				}
			})
		})
		return res.Makespan
	}
	nmpTime := run(MechDIMMLink)
	hostTime := run(MechHostCPU)
	if nmpTime >= hostTime {
		t.Fatalf("NMP (%d) should beat host (%d) on streaming", nmpTime, hostTime)
	}
	speedup := float64(hostTime) / float64(nmpTime)
	if speedup < 1.5 {
		t.Fatalf("NMP speedup %.2f implausibly low for 4 DIMMs", speedup)
	}
}

func TestProfilingThroughRunKernel(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	seg := s.Space.MustAllocOn("far", 4096, 3, mem.SharedRW)
	res := s.RunKernel(true, func(g *cores.Group) {
		s.SpawnPlaced(g, []int{0}, func(tid int, c *cores.Ctx) {
			c.LoadDep(seg.Addr(0), 64)
		})
	})
	if res.Profile == nil || res.Profile[0][3] != 1 {
		t.Fatalf("profile = %v", res.Profile)
	}
}

package nmp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cores"
	"repro/internal/sim"
)

// SpawnPlaced spawns len(placement) threads: thread i runs on a core of
// DIMM placement[i] (or on host core i when placement[i] is -1). At most
// CoresPerDIMM threads may land on one DIMM — the L constraint of
// Algorithm 1.
func (s *System) SpawnPlaced(g *cores.Group, placement []int, body func(tid int, c *cores.Ctx)) error {
	slots := make([]int, s.Cfg.Geo.NumDIMMs)
	for i, d := range placement {
		i := i
		if d == -1 {
			if s.Cfg.Mech != MechHostCPU {
				return fmt.Errorf("nmp: host placement on an NMP system (thread %d)", i)
			}
			if i >= HostCores {
				return fmt.Errorf("nmp: thread %d exceeds %d host cores", i, HostCores)
			}
			g.Spawn(-1, i, func(c *cores.Ctx) { body(i, c) })
			continue
		}
		if d < 0 || d >= s.Cfg.Geo.NumDIMMs {
			return fmt.Errorf("nmp: thread %d placed on invalid DIMM %d", i, d)
		}
		if slots[d] >= s.Cfg.CoresPerDIMM {
			return fmt.Errorf("nmp: DIMM %d oversubscribed (> %d threads)", d, s.Cfg.CoresPerDIMM)
		}
		coreID := s.CoreID(d, slots[d])
		slots[d]++
		g.Spawn(d, coreID, func(c *cores.Ctx) { body(i, c) })
	}
	return nil
}

// KernelResult summarizes one kernel execution.
type KernelResult struct {
	Makespan    sim.Time // kernel launch to last thread + cache flush
	ThreadStats []cores.ThreadStats
	Profile     [][]uint64 // per-thread per-DIMM access counts (if profiled)
}

// IDCStallRatio returns the mean fraction of execution each thread spent
// stalled on inter-DIMM communication — the paper's "non-overlapped IDC
// cycles" metric (the line series of Figure 10).
func (r KernelResult) IDCStallRatio() float64 {
	if r.Makespan == 0 || len(r.ThreadStats) == 0 {
		return 0
	}
	var total float64
	for _, st := range r.ThreadStats {
		total += float64(st.IDCStall)
	}
	return total / (float64(r.Makespan) * float64(len(r.ThreadStats)))
}

// RunKernel executes one coarse-grained NMP kernel: spawn threads with
// spawn, run to completion, flush the NMP caches (so the host can read the
// results — Section III-E), and stop background host activity. If profile
// is true, per-thread traffic counts are recorded for the task-mapping
// optimizer.
func (s *System) RunKernel(profile bool, spawn func(g *cores.Group)) KernelResult {
	g := s.NewGroup()
	spawn(g)
	if profile {
		geo := s.Cfg.Geo
		g.EnableProfiling(geo.NumDIMMs, geo.DIMMOf)
	}
	makespan := g.Run()
	if s.nmpMem != nil {
		makespan = s.nmpMem.FlushCaches(makespan)
	}
	s.Stop()
	return KernelResult{Makespan: makespan, ThreadStats: g.Stats(), Profile: g.Profile}
}

// CacheStats returns aggregate (L1, L2/LLC) statistics.
func (s *System) CacheStats() (l1, l2 cache.Stats) {
	if s.nmpMem != nil {
		return s.nmpMem.L1Stats(), s.nmpMem.L2Stats()
	}
	if m, ok := s.memory.(*hostMemory); ok {
		return sumCacheStats(m.l1), m.llc.Stats
	}
	return
}

package workloads

import (
	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
	"repro/internal/sim"
)

// SyncBench is the Figure 14(a) microbenchmark: every thread alternates
// `Interval` instructions of compute with a barrier, for Rounds rounds.
// Speedup across mechanisms isolates the synchronization transport.
type SyncBench struct {
	Interval uint64 // instructions (core cycles) between barriers
	Rounds   int
}

// Name implements Workload.
func (s *SyncBench) Name() string { return "SyncBench" }

// Run implements Workload.
func (s *SyncBench) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	parts := MakeParts(len(placement)*64, len(placement))
	parts.AllocState(sys, "sync.pad", 64, mem.Private)
	body := func(tid int, c *cores.Ctx) {
		for r := 0; r < s.Rounds; r++ {
			c.Compute(s.Interval)
			c.Load(parts.Addr(tid*64, 64), 64)
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, uint64(s.Rounds), nil
}

// P2PBench measures point-to-point IDC: one thread on SrcDIMM reads (or
// writes) TotalBytes from DstDIMM in transfers of TransferBytes. It backs
// Figure 1's bandwidth-vs-size sweep and Table I's bandwidth formulas.
type P2PBench struct {
	SrcDIMM, DstDIMM int
	TransferBytes    uint32
	TotalBytes       uint64
	Write            bool
}

// Name implements Workload.
func (p *P2PBench) Name() string { return "P2P" }

// Run implements Workload. The checksum is the achieved bandwidth in MB/s
// (rounded), so callers can read it without digging into the result.
func (p *P2PBench) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	seg := sys.Space.MustAllocOn("p2p.buf", p.TotalBytes+uint64(p.TransferBytes), p.DstDIMM, mem.SharedRW)
	body := func(tid int, c *cores.Ctx) {
		if tid != 0 {
			return
		}
		for off := uint64(0); off < p.TotalBytes; off += uint64(p.TransferBytes) {
			if p.Write {
				c.Store(seg.Addr(off), p.TransferBytes)
			} else {
				c.Load(seg.Addr(off), p.TransferBytes)
			}
		}
		c.Drain()
	}
	placement = placementOn(sys, p.SrcDIMM, len(placement))
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, bandwidthMBps(p.TotalBytes, res.Makespan), nil
}

// AllPairsBench saturates disjoint adjacent-DIMM pairs simultaneously:
// the thread on DIMM 2k streams from DIMM 2k+1 (n/2 concurrent pairs, each
// over its own DL link). Aggregate bandwidth demonstrates Table I's
// #Link x beta scaling for DIMM-Link versus the shared-medium baselines.
type AllPairsBench struct {
	TransferBytes uint32
	TotalBytes    uint64 // per pair
}

// Name implements Workload.
func (a *AllPairsBench) Name() string { return "AllPairs" }

// Run implements Workload; the checksum is aggregate bandwidth in MB/s.
func (a *AllPairsBench) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	n := sys.Cfg.Geo.NumDIMMs
	segs := make([]*mem.Segment, n)
	for d := 0; d < n; d++ {
		segs[d] = sys.Space.MustAllocOn("pairs.buf", a.TotalBytes+uint64(a.TransferBytes), d, mem.SharedRW)
	}
	place := make([]int, n)
	for i := range place {
		if sysIsHost(sys) {
			place[i] = -1
		} else {
			place[i] = i
		}
	}
	pairs := uint64(n / 2)
	body := func(tid int, c *cores.Ctx) {
		if tid%2 == 1 {
			return // odd DIMMs serve; even DIMMs pull
		}
		dst := tid + 1
		for off := uint64(0); off < a.TotalBytes; off += uint64(a.TransferBytes) {
			c.Load(segs[dst].Addr(off), a.TransferBytes)
		}
		c.Drain()
	}
	res, err := runPlaced(sys, place, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, bandwidthMBps(a.TotalBytes*pairs, res.Makespan), nil
}

// placementOn pins thread 0 to the given DIMM and parks the rest in order.
func placementOn(sys *nmp.System, dimm int, count int) []int {
	if count < 1 {
		count = 1
	}
	place := make([]int, 1) // a single active thread keeps the bench clean
	if sysIsHost(sys) {
		place[0] = -1
		return place
	}
	place[0] = dimm
	return place
}

func sysIsHost(sys *nmp.System) bool { return sys.Cfg.Mech == nmp.MechHostCPU }

// bandwidthMBps converts bytes over a makespan into MB/s.
func bandwidthMBps(bytes uint64, makespan sim.Time) uint64 {
	if makespan == 0 {
		return 0
	}
	return uint64(float64(bytes) / (float64(makespan) / 1e12) / 1e6)
}

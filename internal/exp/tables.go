package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nmp"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Maximum IDC bandwidth of the four methods (formulas vs measured)",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "SerDes technology comparison (static, from the cited papers)",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "table4",
		Title: "Benchmark suite",
		Run:   runTable4,
	})
	register(Experiment{
		ID:    "table5",
		Title: "System configuration",
		Run:   runTable5,
	})
}

// runTable1 validates Table I's bandwidth formulas by saturating each
// mechanism: concurrent adjacent-pair streams measure the aggregate.
// With beta = 25.6 GB/s per channel/link: CPU-forwarding tops out at
// #Channel x beta/2 (every byte crosses two channels), AIM at beta (one
// shared bus), DIMM-Link at #Link x beta.
func runTable1(o Options) []*stats.Table {
	cfg := sysConfig{"8D-4C", 8, 4}
	total := uint64(1 << 21)
	if o.Quick {
		total = 1 << 20
	}
	tb := stats.NewTable("Table I — aggregate P2P IDC bandwidth over 4 disjoint adjacent pairs, 8 DIMMs / 4 channels (beta = 25.6 GB/s)",
		"mechanism", "formula", "formula-GB/s", "measured-GB/s")
	mechs := []nmp.Mechanism{nmp.MechMCN, nmp.MechAIM, nmp.MechDIMMLink}
	measured := runJobs(o, len(mechs), func(i int) float64 {
		w := &workloads.AllPairsBench{TransferBytes: 4096, TotalBytes: total}
		out := execute(o, w, mechs[i], cfg, nil, nil, false)
		return float64(out.checksum) / 1000
	})
	beta := 25.6
	// The formulas are Table I's theoretical ceilings; measured values sit
	// below them for the same reasons the paper's Figure 1 measures only
	// 3.14 GB/s on real CPU-forwarding hardware (software copy costs,
	// polling, protocol overheads).
	tb.Addf("cpu-forwarding (MCN)", "#Channel x beta/2", 4*beta/2, measured[0])
	tb.Addf("dedicated bus (AIM)", "beta (shared)", beta, measured[1])
	// 4 disjoint pairs -> 4 links active concurrently.
	tb.Addf("DIMM-Link", "#Link x beta", 4*25.0, measured[2])
	return []*stats.Table{tb}
}

func runTable2(o Options) []*stats.Table {
	tb := stats.NewTable("Table II — SerDes techniques (values from the cited measurements)",
		"reference", "media", "signal-rate", "reach", "pJ/b")
	tb.AddRow("Choi et al. [10]", "SMA cable", "6 Gb/s/pin", "953 mm", "0.58")
	tb.AddRow("Gao et al. [25]", "ribbon cable", "16 Gb/s/pin", "500 mm", "2.58")
	tb.AddRow("GRS [69] (used)", "PCB", "25 Gb/s/pin", "80 mm", "1.17")
	return []*stats.Table{tb}
}

func runTable4(o Options) []*stats.Table {
	s := o.sizes()
	tb := stats.NewTable("Table IV — benchmarks", "task", "input (this run)", "paper input")
	tb.AddRow("BFS", fmt.Sprintf("R-MAT scale %d, ef 8", s.graphScale), "graph inputs")
	tb.AddRow("HS", fmt.Sprintf("%dx%d grid, %d iters", s.hsRows, s.hsRows, s.hsIters), "Rodinia hotspot")
	tb.AddRow("KM", fmt.Sprintf("%d pts, %d dims, k=%d", s.kmPoints, s.kmDims, s.kmK), "Rodinia kmeans")
	tb.AddRow("NW", fmt.Sprintf("len %d, block %d", s.nwLen, s.nwBlock), "Rodinia needle")
	tb.AddRow("PR", fmt.Sprintf("R-MAT scale %d, %d iters", s.graphScale, s.prIters), "LiveJournal")
	tb.AddRow("SSSP", fmt.Sprintf("R-MAT scale %d, weighted", s.graphScale), "LiveJournal")
	tb.AddRow("TS.Pow", fmt.Sprintf("%d samples", s.tsLen), "SynCron TS.Pow")
	return []*stats.Table{tb}
}

func runTable5(o Options) []*stats.Table {
	c := nmp.DefaultConfig(16, 8, nmp.MechDIMMLink)
	paperLLC := c.HostLLCBytes
	o.tune(&c)
	tb := stats.NewTable("Table V — system configuration (16D-8C)", "component", "setting")
	tb.AddRow("host CPU", fmt.Sprintf("%d cores @ %.1f GHz, %d-entry window", nmp.HostCores, nmp.HostClockHz/1e9, nmp.HostWindow))
	tb.AddRow("host LLC", fmt.Sprintf("%s shared (Table V: %s, scaled with the inputs)",
		fmtBytes(c.HostLLCBytes), fmtBytes(paperLLC)))
	tb.AddRow("NMP cores", fmt.Sprintf("%d per DIMM @ %.1f GHz", c.CoresPerDIMM, nmp.NMPClockHz/1e9))
	tb.AddRow("NMP L1 / L2", fmt.Sprintf("%d KiB / %d KiB shared", nmp.L1Bytes>>10, nmp.L2Bytes>>10))
	tb.AddRow("DRAM", "DDR4-3200 LR-DIMM, 2 ranks, 16 banks/rank, 8 KiB rows")
	tb.AddRow("channels", fmt.Sprintf("%d x 25.6 GB/s", c.Geo.NumChannels))
	tb.AddRow("DIMM-Link", fmt.Sprintf("GRS %.0f GB/s per link, %s topology, %d groups",
		c.DL.Link.BytesPerSec/1e9, string(c.DL.Topology)+"", core.GroupsFor(c.Geo.NumDIMMs)))
	tb.AddRow("polling", c.Host.String())
	return []*stats.Table{tb}
}

package exp

import (
	"fmt"

	"repro/internal/nmp"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "fig01",
		Title: "Motivation: CPU-forwarding IDC bandwidth vs transfer size; NMP vs IDC aggregate bandwidth",
		Run:   runFig01,
	})
}

// runFig01 regenerates the UPMEM measurement of Figure 1 on the simulated
// MCN-style (CPU-forwarding) system: point-to-point IDC bandwidth as a
// function of transfer size, and the aggregate-NMP versus aggregate-IDC
// bandwidth gap on the 16-DIMM system. One job per transfer size.
func runFig01(o Options) []*stats.Table {
	cfg := sysConfig{"16D-8C", 16, 8}
	sizes := []uint32{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	total := uint64(1 << 22)
	if o.Quick {
		total = 1 << 21
	}
	gbps := runJobs(o, len(sizes), func(i int) float64 {
		b := &workloads.P2PBench{SrcDIMM: 0, DstDIMM: 15, TransferBytes: sizes[i], TotalBytes: total}
		out := execute(o, b, nmp.MechMCN, cfg, nil, nil, false)
		return float64(out.checksum) / 1000 // checksum is MB/s
	})

	curve := stats.NewTable("Figure 1(a) — P2P IDC bandwidth vs transfer size (CPU forwarding)",
		"transfer", "bandwidth-GB/s")
	var peak float64
	for i, sz := range sizes {
		if gbps[i] > peak {
			peak = gbps[i]
		}
		curve.AddRow(fmtBytes(uint64(sz)), stats.FormatFloat(gbps[i]))
	}

	agg := stats.NewTable("Figure 1(b) — aggregate bandwidth on the 16-DIMM system (paper: 1.28 TB/s NMP vs ~25 GB/s IDC, 51x)",
		"metric", "GB/s")
	// Aggregate NMP bandwidth: every DIMM's ranks in parallel.
	sys := nmp.MustNewSystem(nmp.DefaultConfig(16, 8, nmp.MechMCN))
	nmpAgg := 0.0
	for _, m := range sys.Modules {
		nmpAgg += m.PeakBytesPerSec()
	}
	agg.AddRow("aggregate NMP (ranks)", stats.FormatFloat(nmpAgg/1e9))
	agg.AddRow("P2P IDC peak (CPU forwarding)", stats.FormatFloat(peak))
	agg.AddRow("NMP / IDC ratio", stats.FormatFloat(nmpAgg/1e9/peak))
	return []*stats.Table{curve, agg}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

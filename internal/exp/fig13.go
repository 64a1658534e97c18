package exp

import (
	"repro/internal/energy"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Energy consumption of the IDC methods on 16D-8C",
		Run:   runFig13,
	})
}

// runFig13 prices each mechanism's run with the paper's energy model. The
// measurement grid is fig10Measure's parallel job fan-out; energy is
// computed in the collect callback, which the engine invokes strictly in
// serial grid order, so rows land deterministically.
func runFig13(o Options) []*stats.Table {
	tb := stats.NewTable("Figure 13 — energy (J) on 16D-8C, by mechanism (DRAM / IDC / cores)",
		"workload", "mechanism", "dram", "idc", "cores", "total")
	// Per-mechanism total energy accumulated across workloads for ratios.
	totals := map[string]float64{}
	collect := func(_ sysConfig, wl, mech string, out runOut) {
		b := energy.Compute(out.sys.EnergyInputs(out.res.Makespan))
		tb.Addf(wl, mech, b.DRAM, b.IDC, b.Cores, b.Total)
		totals[mech] += b.Total
	}
	fig10Measure(o, []sysConfig{{"16D-8C", 16, 8}}, collect)

	sum := stats.NewTable("Figure 13 — total energy ratios (paper: MCN/DL 1.76x, AIM/DL 1.07x)",
		"ratio", "value")
	if totals["dl-opt"] > 0 {
		sum.Addf("MCN / DIMM-Link", totals["mcn"]/totals["dl-opt"])
		sum.Addf("AIM / DIMM-Link", totals["aim"]/totals["dl-opt"])
		sum.Addf("CPU / DIMM-Link", totals["host-cpu"]/totals["dl-opt"])
	}
	return []*stats.Table{tb, sum}
}

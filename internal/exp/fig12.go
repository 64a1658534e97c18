package exp

import (
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Broadcast performance: PR/SSSP/SpMV vs MCN-BC, ABC-DIMM (2/3 DPC), AIM-BC",
		Run:   runFig12,
	})
}

// bcBuilders returns lazy constructors for the three broadcast-manner
// workloads of Figure 12, in suite order. Unlike the Community graphs of
// the other grids, their inputs are R-MAT graphs with edge factor 8.
func bcBuilders(s sizing, seed int64) []func() workloads.Workload {
	return []func() workloads.Workload{
		func() workloads.Workload {
			pr := workloads.NewPageRankFromGraph(workloads.RMAT(s.graphScale, 8, seed+1), s.prIters)
			pr.Broadcast = true
			return pr
		},
		func() workloads.Workload {
			ss := workloads.NewSSSPFromGraph(workloads.RMAT(s.graphScale, 8, seed+2))
			ss.Broadcast = true
			return ss
		},
		func() workloads.Workload {
			sp := workloads.NewSpMVFromGraph(workloads.RMAT(s.graphScale, 8, seed+3), s.prIters)
			sp.Broadcast = true
			return sp
		},
	}
}

var fig12Mechs = []nmp.Mechanism{nmp.MechMCN, nmp.MechABCDIMM, nmp.MechDIMMLink, nmp.MechAIM}

func runFig12(o Options) []*stats.Table {
	// Practical DPC configurations: ABC-DIMM's broadcast reach is the
	// channel, so DIMMs-per-channel is the axis that matters.
	configs := []sysConfig{
		{"8D-4C (2DPC)", 8, 4},
		{"12D-4C (3DPC)", 12, 4},
	}
	builders := bcBuilders(o.sizes(), o.Seed)
	nW, nM := len(builders), len(fig12Mechs)

	type fig12Out struct {
		name     string
		makespan sim.Time
	}
	outs := runJobs(o, len(configs)*nW*nM, func(i int) fig12Out {
		cfg := configs[i/(nW*nM)]
		w := builders[(i/nM)%nW]()
		out := execute(o, w, fig12Mechs[i%nM], cfg, nil, nil, false)
		return fig12Out{name: w.Name(), makespan: out.res.Makespan}
	})

	tb := stats.NewTable("Figure 12 — broadcast speedup over MCN-BC (paper: DL 2.58x vs MCN-BC, 1.77x vs ABC-DIMM; AIM-BC wins)",
		"config", "workload", "mcn-bc", "abc-dimm", "dimm-link", "aim-bc")
	ratios := map[string][]float64{}
	for ci, cfg := range configs {
		for wi := 0; wi < nW; wi++ {
			cell := (ci*nW + wi) * nM
			mcn, abc, dl, aim := outs[cell].makespan, outs[cell+1].makespan, outs[cell+2].makespan, outs[cell+3].makespan
			tb.Addf(cfg.name, outs[cell].name,
				1.0,
				speedup(mcn, abc),
				speedup(mcn, dl),
				speedup(mcn, aim))
			ratios["dl-vs-mcn"] = append(ratios["dl-vs-mcn"], speedup(mcn, dl))
			ratios["dl-vs-abc"] = append(ratios["dl-vs-abc"], float64(abc)/float64(dl))
			ratios["aim-vs-dl"] = append(ratios["aim-vs-dl"], float64(dl)/float64(aim))
		}
	}
	sum := stats.NewTable("Figure 12 — geomeans", "ratio", "value", "paper")
	sum.Addf("DIMM-Link vs MCN-BC", geoMeanCell(ratios["dl-vs-mcn"]), "2.58x")
	sum.Addf("DIMM-Link vs ABC-DIMM", geoMeanCell(ratios["dl-vs-abc"]), "1.77x")
	sum.Addf("AIM-BC vs DIMM-Link", geoMeanCell(ratios["aim-vs-dl"]), ">1 (ideal bus)")
	return []*stats.Table{tb, sum}
}

package exp

import (
	"repro/internal/host"
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Polling strategies: end-to-end performance and memory bus occupation",
		Run:   runFig15,
	})
}

func runFig15(o Options) []*stats.Table {
	cfg := sysConfig{"16D-8C", 16, 8}
	modes := []struct {
		name string
		mode host.PollingMode
	}{
		{"Base", host.BasePolling},
		{"Base+Itrpt", host.BaseInterrupt},
		{"P-P", host.ProxyPolling},
		{"P-P+Itrpt", host.ProxyInterrupt},
	}
	// Two representative workloads keep the sweep affordable; Figure 15
	// uses the same suite as Figure 10. One job per (workload, mode) cell.
	builders := p2pBuilders(o.sizes(), o.Seed)
	if o.Quick {
		builders = builders[:3] // BFS, HS, KM
	}
	type fig15Out struct {
		name       string
		makespan   sim.Time
		occupation float64
	}
	nM := len(modes)
	outs := runJobs(o, len(builders)*nM, func(i int) fig15Out {
		w := builders[i/nM]()
		mode := modes[i%nM].mode
		out := execute(o, w, nmp.MechDIMMLink, cfg,
			func(c *nmp.Config) { c.Host = mode }, nil, false)
		return fig15Out{
			name:       w.Name(),
			makespan:   out.res.Makespan,
			occupation: out.sys.Host().BusOccupation(out.res.Makespan),
		}
	})

	perf := stats.NewTable("Figure 15(a) — end-to-end speedup over Base polling (DIMM-Link, 16D-8C)",
		"workload", "Base", "Base+Itrpt", "P-P", "P-P+Itrpt")
	occ := stats.NewTable("Figure 15(b) — memory bus occupation % (paper: Base 32%, P-P+Itrpt 0.2%)",
		"workload", "Base", "Base+Itrpt", "P-P", "P-P+Itrpt")
	for wi := range builders {
		cell := wi * nM
		perfRow := []any{outs[cell].name}
		occRow := []any{outs[cell].name}
		baseTime := float64(outs[cell].makespan)
		for mi := range modes {
			r := outs[cell+mi]
			perfRow = append(perfRow, baseTime/float64(r.makespan))
			occRow = append(occRow, 100*r.occupation)
		}
		perf.Addf(perfRow...)
		occ.Addf(occRow...)
	}
	return []*stats.Table{perf, occ}
}

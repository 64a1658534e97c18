package exp

import (
	"repro/internal/host"
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "P2P IDC performance: speedup over the 16-core CPU and non-overlapped IDC cycle ratio",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Data transfer breakdown of DIMM-Link-opt (local / DIMM-Link / CPU-forwarded)",
		Run:   runFig11,
	})
}

// fig10Row is one (config, workload) measurement set.
type fig10Row struct {
	cfg      sysConfig
	workload string
	speedups map[string]float64 // mechanism -> speedup over CPU
	idcRatio map[string]float64 // mechanism -> non-overlapped IDC cycle ratio
}

// fig10Out is one grid job's result. Kind 0 carries the host-CPU baseline,
// kinds 1-2 the MCN/AIM runs in out, and kind 3 the DL-base run in out
// plus the optimized rerun in opt (the pair is one job: the optimized run
// consumes the profiled run's traffic matrix).
type fig10Out struct {
	name     string
	out      runOut
	opt      runOut
	optTotal sim.Time
}

// fig10Kinds is the per-cell job layout of the Figure 10 grid.
const fig10Kinds = 4

// fig10Measure runs the full mechanism sweep for every config/workload and
// is shared by Figures 10, 11 and 13. The grid fans out as one job per
// (config, workload, mechanism) simulation; rows are assembled — and
// collect invoked — strictly in the serial visiting order, so output is
// independent of scheduling.
func fig10Measure(o Options, configs []sysConfig, collect func(cfg sysConfig, wlName, mech string, out runOut)) []fig10Row {
	builders := p2pBuilders(o.sizes(), o.Seed)
	nW := len(builders)
	outs := runJobs(o, len(configs)*nW*fig10Kinds, func(i int) fig10Out {
		cfg := configs[i/(nW*fig10Kinds)]
		w := builders[(i/fig10Kinds)%nW]()
		r := fig10Out{name: w.Name()}
		switch i % fig10Kinds {
		case 0:
			r.out = execute(o, w, nmp.MechHostCPU, cfg, nil, nil, false)
		case 1:
			r.out = execute(o, w, nmp.MechMCN, cfg, nil, nil, false)
		case 2:
			r.out = execute(o, w, nmp.MechAIM, cfg, nil, nil, false)
		case 3:
			r.optTotal, r.opt, r.out = runDLOpt(o, w, cfg, nil)
		}
		if collect == nil {
			// The timing tables below never look at the systems; dropping
			// them lets each job's memory be reclaimed before the whole
			// grid finishes.
			r.out.sys, r.opt.sys = nil, nil
		}
		return r
	})

	var rows []fig10Row
	for ci, cfg := range configs {
		for wi := 0; wi < nW; wi++ {
			cell := (ci*nW + wi) * fig10Kinds
			cpu, mcn, aim, dl := outs[cell], outs[cell+1], outs[cell+2], outs[cell+3]
			row := fig10Row{cfg: cfg, workload: cpu.name,
				speedups: map[string]float64{}, idcRatio: map[string]float64{}}
			base := cpu.out.res.Makespan

			for _, m := range []struct {
				mech string
				out  runOut
			}{{"mcn", mcn.out}, {"aim", aim.out}} {
				row.speedups[m.mech] = speedup(base, m.out.res.Makespan)
				row.idcRatio[m.mech] = m.out.res.IDCStallRatio()
				if collect != nil {
					collect(cfg, cpu.name, m.mech, m.out)
				}
			}
			row.speedups["dl-base"] = speedup(base, dl.out.res.Makespan)
			row.idcRatio["dl-base"] = dl.out.res.IDCStallRatio()
			row.speedups["dl-opt"] = speedup(base, dl.optTotal)
			row.idcRatio["dl-opt"] = dl.opt.res.IDCStallRatio()
			if collect != nil {
				collect(cfg, cpu.name, "dl-base", dl.out)
				collect(cfg, cpu.name, "dl-opt", dl.opt)
				collect(cfg, cpu.name, "host-cpu", cpu.out)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

var fig10Mechs = []string{"mcn", "aim", "dl-base", "dl-opt"}

func runFig10(o Options) []*stats.Table {
	rows := fig10Measure(o, p2pConfigs(), nil)

	tb := stats.NewTable("Figure 10 — speedup over 16-core CPU (bars) and non-overlapped IDC cycle ratio (lines)",
		"config", "workload", "mcn", "aim", "dl-base", "dl-opt",
		"idc%:mcn", "idc%:aim", "idc%:dl-base", "idc%:dl-opt")
	perMech := map[string][]float64{}
	for _, r := range rows {
		tb.Addf(r.cfg.name, r.workload,
			r.speedups["mcn"], r.speedups["aim"], r.speedups["dl-base"], r.speedups["dl-opt"],
			100*r.idcRatio["mcn"], 100*r.idcRatio["aim"],
			100*r.idcRatio["dl-base"], 100*r.idcRatio["dl-opt"])
		for _, m := range fig10Mechs {
			perMech[m] = append(perMech[m], r.speedups[m])
		}
	}

	sum := stats.NewTable("Figure 10 — geomean speedups over CPU (paper: MCN 2.45x, AIM 3.17x, DL-base 5.30x, DL-opt 5.93x)",
		"mechanism", "geomean-speedup", "dl-opt-vs-this")
	opt, optErr := stats.GeoMean(perMech["dl-opt"])
	for _, m := range fig10Mechs {
		gm, err := stats.GeoMean(perMech[m])
		if err != nil || optErr != nil {
			sum.Addf(m, "n/a", "n/a")
			continue
		}
		sum.Addf(m, gm, opt/gm)
	}
	return []*stats.Table{tb, sum}
}

// runFig11 reports where DIMM-Link-opt's bytes travel: local DRAM,
// DIMM-Link transfers, or CPU-forwarded (the paper: only ~29% of total IDC
// traffic crosses the host). One job per workload; each job extracts the
// three byte counters so the systems are not retained.
func runFig11(o Options) []*stats.Table {
	cfg := sysConfig{"16D-8C", 16, 8}
	builders := p2pBuilders(o.sizes(), o.Seed)
	type fig11Out struct {
		name               string
		local, remote, fwd float64
	}
	outs := runJobs(o, len(builders), func(i int) fig11Out {
		w := builders[i]()
		_, opt, _ := runDLOpt(o, w, cfg, nil)
		return fig11Out{
			name:   w.Name(),
			local:  float64(opt.sys.Ctrs.Get("bytes.local")),
			remote: float64(opt.sys.Ctrs.Get("bytes.remote")),
			fwd:    float64(opt.sys.Host().Counters.Get(host.CtrFwdedBytes)),
		}
	})

	tb := stats.NewTable("Figure 11 — DIMM-Link-opt data transfer breakdown (%)",
		"workload", "local", "dimm-link", "cpu-forwarded", "fwd-share-of-remote")
	for _, r := range outs {
		fwd := r.fwd
		if fwd > r.remote {
			fwd = r.remote
		}
		linkLocal := r.remote - fwd
		total := r.local + r.remote
		if total == 0 {
			continue
		}
		fwdShare := 0.0
		if r.remote > 0 {
			fwdShare = 100 * fwd / r.remote
		}
		tb.Addf(r.name, 100*r.local/total, 100*linkLocal/total, 100*fwd/total, fwdShare)
	}
	return []*stats.Table{tb}
}

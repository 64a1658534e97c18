package exp

import (
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "ext-disagg",
		Title: "Extension (Sec. VI): DIMM-Link memory blades behind a CXL switch vs host forwarding",
		Run:   runExtDisagg,
	})
	register(Experiment{
		ID:    "ext-nearbank",
		Title: "Extension (Sec. VI): NMP core count per DIMM (buffer-centric vs near-bank-style parallelism)",
		Run:   runExtNearBank,
	})
	register(Experiment{
		ID:    "ext-prim",
		Title: "Extension: PrIM-style GEMV and Histogram kernels across mechanisms",
		Run:   runExtPrIM,
	})
}

// runExtDisagg evaluates the paper's Section VI proposal: organize the two
// DL groups as memory blades and carry inter-blade traffic over CXL (no
// host polling or forwarding at all). One job per (workload, transport).
func runExtDisagg(o Options) []*stats.Table {
	cfg := sysConfig{"16D-8C", 16, 8}
	builders := p2pBuilders(o.sizes(), o.Seed)
	type disaggOut struct {
		name     string
		makespan sim.Time
		counter  uint64 // host.forwards for via-host, cxl.bytes for via-cxl
	}
	outs := runJobs(o, len(builders)*2, func(i int) disaggOut {
		w := builders[i/2]()
		if i%2 == 0 {
			out := execute(o, w, nmp.MechDIMMLink, cfg, nil, nil, false)
			return disaggOut{name: w.Name(), makespan: out.res.Makespan,
				counter: out.sys.Host().Counters.Get(host.CtrForwards)}
		}
		out := execute(o, w, nmp.MechDIMMLink, cfg,
			func(c *nmp.Config) { c.DL.InterGroup = core.ViaCXL }, nil, false)
		return disaggOut{name: w.Name(), makespan: out.res.Makespan,
			counter: out.sys.IC.Counters().Get("cxl.bytes")}
	})

	tb := stats.NewTable("Extension — inter-group transport on 16D-8C DIMM-Link (speedup over host forwarding)",
		"workload", "via-host", "via-cxl", "cxl-bytes", "host-forwards-(host-mode)")
	for wi := range builders {
		hostOut, cxlOut := outs[wi*2], outs[wi*2+1]
		tb.Addf(hostOut.name, 1.0,
			speedup(hostOut.makespan, cxlOut.makespan),
			cxlOut.counter,
			hostOut.counter)
	}
	return []*stats.Table{tb}
}

// runExtNearBank sweeps NMP cores per DIMM: the centralized-buffer design
// evaluated in the paper uses 4; near-bank designs (UPMEM-style) trade
// simpler cores for many more of them. One job per (workload, core count).
func runExtNearBank(o Options) []*stats.Table {
	cfg := sysConfig{"8D-4C", 8, 4}
	s := o.sizes()
	builders := []func() workloads.Workload{
		func() workloads.Workload {
			return workloads.NewBFSFromGraph(workloads.Community(s.graphScale, s.edgeFactor, o.Seed))
		},
		func() workloads.Workload { return workloads.NewHotspot(s.hsRows, s.hsRows, s.hsIters) },
		func() workloads.Workload {
			return workloads.NewKMeans(s.kmPoints, s.kmDims, s.kmK, s.kmIters, o.Seed)
		},
	}
	coreCounts := []int{2, 4, 8, 16}
	nC := len(coreCounts)
	type nbOut struct {
		name     string
		makespan sim.Time
	}
	outs := runJobs(o, len(builders)*nC, func(i int) nbOut {
		w := builders[i/nC]()
		cores := coreCounts[i%nC]
		out := execute(o, w, nmp.MechDIMMLink, cfg,
			func(c *nmp.Config) { c.CoresPerDIMM = cores }, nil, false)
		return nbOut{name: w.Name(), makespan: out.res.Makespan}
	})

	tb := stats.NewTable("Extension — NMP cores per DIMM (speedup over 2 cores, DIMM-Link 8D-4C)",
		"workload", "2-cores", "4-cores", "8-cores", "16-cores")
	for wi := range builders {
		cell := wi * nC
		row := []any{outs[cell].name}
		base := float64(outs[cell].makespan)
		for ci := 0; ci < nC; ci++ {
			row = append(row, base/float64(outs[cell+ci].makespan))
		}
		tb.Addf(row...)
	}
	return []*stats.Table{tb}
}

// runExtPrIM runs the two PrIM-style kernels on every mechanism. One job
// per (kernel, mechanism) including the CPU baseline.
func runExtPrIM(o Options) []*stats.Table {
	cfg := sysConfig{"8D-4C", 8, 4}
	gemvRows, gemvCols := 4096, 1024
	histoN, histoBins := 1<<20, 256
	if o.Quick {
		gemvRows, gemvCols = 2048, 512
		histoN = 1 << 18
	}
	type build func() workloads.Workload
	kernels := []build{
		func() workloads.Workload { return workloads.NewGEMV(gemvRows, gemvCols, 2, o.Seed) },
		func() workloads.Workload {
			g := workloads.NewGEMV(gemvRows, gemvCols, 2, o.Seed)
			g.Broadcast = true
			return g
		},
		func() workloads.Workload { return workloads.NewHistogram(histoN, histoBins, o.Seed) },
	}
	names := []string{"GEMV", "GEMV-BC", "HISTO"}
	mechs := []nmp.Mechanism{nmp.MechHostCPU, nmp.MechMCN, nmp.MechAIM, nmp.MechDIMMLink}
	nM := len(mechs)
	outs := runJobs(o, len(kernels)*nM, func(i int) sim.Time {
		return execute(o, kernels[i/nM](), mechs[i%nM], cfg, nil, nil, false).res.Makespan
	})

	tb := stats.NewTable("Extension — PrIM-style kernels (speedup over the 16-core CPU)",
		"workload", "mcn", "aim", "dimm-link")
	for ki := range kernels {
		cell := ki * nM
		cpu := outs[cell]
		row := []any{names[ki]}
		for mi := 1; mi < nM; mi++ {
			row = append(row, speedup(cpu, outs[cell+mi]))
		}
		tb.Addf(row...)
	}
	return []*stats.Table{tb}
}

package exp

import (
	"repro/internal/nmp"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "abl-mapping",
		Title: "Ablation: distance-aware task mapping recovering from data-oblivious placement (Algorithm 1)",
		Run:   runAblMapping,
	})
	register(Experiment{
		ID:    "abl-dll",
		Title: "Ablation: DLL-layer CRC error/retry cost",
		Run:   runAblDLL,
	})
	register(Experiment{
		ID:    "abl-credits",
		Title: "Ablation: link flow-control credit depth",
		Run:   runAblCredits,
	})
	register(Experiment{
		ID:    "abl-payload",
		Title: "Ablation: DL packet payload size (the LEN field budget)",
		Run:   runAblPayload,
	})
	register(Experiment{
		ID:    "abl-greedy",
		Title: "Ablation: MCMF vs greedy thread placement quality",
		Run:   runAblGreedy,
	})
}

// runAblMapping quantifies Algorithm 1's recovery power: starting from a
// NUMA-domain-aware but hop-oblivious scheduler (group-shuffled placement)
// and from a fully random one, how much of the aligned performance does the
// profiled MCMF placement recover? This is where the paper's optimization
// actually bites; the Figure 10 default placement is already data-aligned,
// so the end-to-end dl-opt/dl-base gain there is small.
//
// The grid fans out as one job per (workload, starting placement); each
// shuffled-start job runs its raw measurement, the MCMF solve, and the
// re-mapped rerun — an inherently sequential pipeline — internally.
func runAblMapping(o Options) []*stats.Table {
	cfg := sysConfig{"16D-8C", 16, 8}
	s := o.sizes()
	builders := []func() workloads.Workload{
		func() workloads.Workload {
			return workloads.NewBFSFromGraph(workloads.Community(s.graphScale, s.edgeFactor, o.Seed))
		},
		func() workloads.Workload {
			return workloads.NewKMeans(s.kmPoints, s.kmDims, s.kmK, s.kmIters, o.Seed)
		},
		func() workloads.Workload {
			return workloads.NewPageRankFromGraph(workloads.Community(s.graphScale, s.edgeFactor, o.Seed+1), s.prIters)
		},
	}
	const nV = 3 // aligned, group-shuffled, shuffled
	type mapOut struct {
		name        string
		aligned     float64 // variant 0
		raw, mapped float64 // variants 1-2
	}
	outs := runJobs(o, len(builders)*nV, func(i int) mapOut {
		w := builders[i/nV]()
		r := mapOut{name: w.Name()}
		if i%nV == 0 {
			r.aligned = float64(execute(o, w, nmp.MechDIMMLink, cfg, nil, nil, false).res.Makespan)
			return r
		}
		// Each shuffled start draws its own RNG stream, derived from
		// (Options.Seed, job index) — see jobSeed — so jobs never share
		// rand state yet stay reproducible for a given -seed.
		sysProbe := nmp.MustNewSystem(nmp.DefaultConfig(cfg.dimms, cfg.channels, nmp.MechDIMMLink))
		var startPlace []int
		if i%nV == 1 {
			startPlace = sysProbe.GroupShuffledPlacement(jobSeed(o.Seed, i))
		} else {
			startPlace = sysProbe.ShuffledPlacement(jobSeed(o.Seed, i))
		}
		rawOut := execute(o, w, nmp.MechDIMMLink, cfg, nil, startPlace, true)
		place, err := placement.Optimize(rawOut.res.Profile, rawOut.sys.Link.Distance, rawOut.sys.Cfg.CoresPerDIMM)
		if err != nil {
			panic(err)
		}
		mapped := execute(o, w, nmp.MechDIMMLink, cfg, nil, place, false)
		r.raw = float64(rawOut.res.Makespan)
		r.mapped = float64(mapped.res.Makespan) + float64(rawOut.res.Makespan)/100
		return r
	})

	tb := stats.NewTable("Ablation — task mapping: makespan relative to aligned placement (higher is better)",
		"workload", "aligned", "group-shuffled", "shuffled", "mapped-from-group-shuffled", "mapped-from-shuffled")
	for wi := range builders {
		cell := wi * nV
		base := outs[cell].aligned
		grp, shf := outs[cell+1], outs[cell+2]
		tb.Addf(outs[cell].name, 1.0, base/grp.raw, base/shf.raw, base/grp.mapped, base/shf.mapped)
	}
	return []*stats.Table{tb}
}

// runAblDLL sweeps injected CRC error rates to price the DLL retry path.
// One job per error rate.
func runAblDLL(o Options) []*stats.Table {
	cfg := sysConfig{"8D-4C", 8, 4}
	s := o.sizes()
	rates := []uint64{0, 1000, 100, 10}
	type dllOut struct {
		makespan sim.Time
		retries  uint64
	}
	outs := runJobs(o, len(rates), func(i int) dllOut {
		every := rates[i]
		w := workloads.NewBFSFromGraph(workloads.Community(s.graphScale, s.edgeFactor, o.Seed))
		out := execute(o, w, nmp.MechDIMMLink, cfg,
			func(c *nmp.Config) { c.DL.ErrorEvery = every }, nil, false)
		return dllOut{makespan: out.res.Makespan, retries: out.sys.IC.Counters().Get("link.retries")}
	})

	tb := stats.NewTable("Ablation — DLL retries: slowdown vs error-free links",
		"error-every-N-packets", "slowdown", "retries")
	base := float64(outs[0].makespan)
	for i, every := range rates {
		if every == 0 {
			tb.Addf("none", 1.0, 0)
			continue
		}
		tb.Addf(every, float64(outs[i].makespan)/base, outs[i].retries)
	}
	return []*stats.Table{tb}
}

// runAblCredits sweeps the flow-control window depth. One job per depth.
func runAblCredits(o Options) []*stats.Table {
	cfg := sysConfig{"8D-4C", 8, 4}
	s := o.sizes()
	depths := []int{1, 2, 4, 16, 64}
	outs := runJobs(o, len(depths), func(i int) sim.Time {
		credits := depths[i]
		w := workloads.NewPageRankFromGraph(workloads.Community(s.graphScale, s.edgeFactor, o.Seed+1), s.prIters)
		return execute(o, w, nmp.MechDIMMLink, cfg,
			func(c *nmp.Config) { c.DL.Link.Credits = credits }, nil, false).res.Makespan
	})

	tb := stats.NewTable("Ablation — link credits: speedup vs a 1-credit (stop-and-wait) link",
		"credits", "speedup")
	base := float64(outs[0])
	for i, credits := range depths {
		tb.Addf(credits, base/float64(outs[i]))
	}
	return []*stats.Table{tb}
}

// runAblPayload sweeps the maximum packet payload via the link's effective
// per-packet framing: smaller payloads mean more header/tail flits per
// byte. We approximate by scaling the P2P benchmark's transfer size. One
// job per size.
func runAblPayload(o Options) []*stats.Table {
	cfg := sysConfig{"4D-2C", 4, 2}
	sizes := []uint32{64, 128, 256, 1024, 4096, 16384}
	outs := runJobs(o, len(sizes), func(i int) uint64 {
		b := &workloads.P2PBench{SrcDIMM: 0, DstDIMM: 2, TransferBytes: sizes[i], TotalBytes: 1 << 20}
		return execute(o, b, nmp.MechDIMMLink, cfg, nil, nil, false).checksum
	})
	tb := stats.NewTable("Ablation — transfer granularity on a 2-hop DIMM-Link path",
		"transfer-bytes", "bandwidth-MB/s")
	for i, sz := range sizes {
		tb.Addf(sz, outs[i])
	}
	return []*stats.Table{tb}
}

// runAblGreedy compares Algorithm 1's MCMF placement against the greedy
// heuristic on the profiled traffic matrices. A single profiled run feeds
// both solvers, so this one stays serial.
func runAblGreedy(o Options) []*stats.Table {
	cfg := sysConfig{"16D-8C", 16, 8}
	s := o.sizes()
	w := workloads.NewKMeans(s.kmPoints, s.kmDims, s.kmK, s.kmIters, o.Seed)
	tb := stats.NewTable("Ablation — placement solver: distance-weighted traffic cost (lower is better)",
		"solver", "cost", "vs-mcmf")

	sysProbe := nmp.MustNewSystem(nmp.DefaultConfig(cfg.dimms, cfg.channels, nmp.MechDIMMLink))
	start := sysProbe.ShuffledPlacement(o.Seed)
	raw := execute(o, w, nmp.MechDIMMLink, cfg, nil, start, true)
	dist := raw.sys.Link.Distance
	perDIMM := raw.sys.Cfg.CoresPerDIMM

	opt, err := placement.Optimize(raw.res.Profile, dist, perDIMM)
	if err != nil {
		panic(err)
	}
	gre, err := placement.Greedy(raw.res.Profile, dist, perDIMM)
	if err != nil {
		panic(err)
	}
	optCost := placement.TotalCost(raw.res.Profile, dist, opt)
	greCost := placement.TotalCost(raw.res.Profile, dist, gre)
	startCost := placement.TotalCost(raw.res.Profile, dist, start)
	tb.Addf("mcmf (Algorithm 1)", optCost, 1.0)
	tb.Addf("greedy", greCost, safeDiv(greCost, optCost))
	tb.Addf("unoptimized (shuffled)", startCost, safeDiv(startCost, optCost))
	return []*stats.Table{tb}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func init() {
	register(Experiment{
		ID:    "abl-page",
		Title: "Ablation: DRAM row policy (open-page vs closed-page / auto-precharge)",
		Run:   runAblPage,
	})
}

// runAblPage sweeps the DRAM row-buffer policy under DIMM-Link. One job
// per (workload, policy) cell.
func runAblPage(o Options) []*stats.Table {
	cfg := sysConfig{"8D-4C", 8, 4}
	s := o.sizes()
	builders := []func() workloads.Workload{
		func() workloads.Workload {
			return workloads.NewBFSFromGraph(workloads.Community(s.graphScale, s.edgeFactor, o.Seed))
		},
		func() workloads.Workload { return workloads.NewHotspot(s.hsRows, s.hsRows, s.hsIters) },
	}
	type pageOut struct {
		name     string
		makespan sim.Time
	}
	outs := runJobs(o, len(builders)*2, func(i int) pageOut {
		w := builders[i/2]()
		var tweak func(*nmp.Config)
		if i%2 == 0 {
			tweak = func(c *nmp.Config) { c.ClosedPage = true }
		}
		out := execute(o, w, nmp.MechDIMMLink, cfg, tweak, nil, false)
		return pageOut{name: w.Name(), makespan: out.res.Makespan}
	})
	tb := stats.NewTable("Ablation — DRAM row policy (speedup of open-page over closed-page)",
		"workload", "closed-page", "open-page")
	for wi := range builders {
		closed, open := outs[wi*2], outs[wi*2+1]
		tb.Addf(closed.name, 1.0, speedup(closed.makespan, open.makespan))
	}
	return []*stats.Table{tb}
}

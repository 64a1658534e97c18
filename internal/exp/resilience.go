package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/idc"
	"repro/internal/metrics"
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "resilience",
		Title: "Link-fault resilience: DLL retry/replay under BER, and rerouting/host fallback after link failure",
		Run:   runResilience,
	})
}

// faultOut is one resilience job's result: the makespan plus the DLL and
// routing recovery counters, extracted so the system is not retained.
// Every job also carries a private metrics collector, so the resilience
// tables can report how faults move the latency tail (pkt p50/p99, the
// total DLL retry stall) alongside the recovery counters.
type faultOut struct {
	name     string
	makespan sim.Time
	replays  uint64
	timeouts uint64
	linkdown uint64
	reroutes uint64
	fallback uint64

	pktP50, pktP99 float64 // per-packet link latency percentiles, ns
	retryStallNs   float64 // summed DLL retry stall, ns
	utilMax        float64 // highest-loaded DL link utilization
}

// faultRun executes one DIMM-Link run under the given plan and extracts
// the recovery counters and latency tail.
func faultRun(o Options, w workloads.Workload, cfg sysConfig, plan *fault.Plan, tweak func(*nmp.Config)) faultOut {
	o.Fault = plan
	coll := metrics.NewCollector()
	out := execute(o, w, nmp.MechDIMMLink, cfg, func(c *nmp.Config) {
		c.Metrics = coll
		if tweak != nil {
			tweak(c)
		}
	}, nil, false)
	c := out.sys.Link.Counters()
	pkt := coll.Reg.Hist(metrics.HistPacketLat)
	fo := faultOut{
		name:         w.Name(),
		makespan:     out.res.Makespan,
		replays:      c.Get(idc.CtrFaultReplays),
		timeouts:     c.Get(idc.CtrFaultTimeouts),
		linkdown:     c.Get(idc.CtrFaultLinkDown),
		reroutes:     c.Get(idc.CtrFaultReroutes),
		fallback:     c.Get(idc.CtrFaultFallback),
		pktP50:       float64(pkt.Quantile(0.50)) / 1000,
		pktP99:       float64(pkt.Quantile(0.99)) / 1000,
		retryStallNs: float64(coll.Reg.Hist(metrics.HistDLLRetry).Sum()) / 1000,
	}
	for _, net := range out.sys.Link.Networks() {
		for i := range net.LinkKeys() {
			if u := net.LinkUtilizationAt(i, out.res.Makespan); u > fo.utilMax {
				fo.utilMax = u
			}
		}
	}
	return fo
}

// cleanBER is the vanishing bit-error rate used as the fault-free
// baseline inside the resilience tables. It keeps the plan active — the
// DLL replay buffer, sequence window, and ACK timing stay in the cost
// model — without a realistic chance of injecting a single error, so the
// deltas isolate recovery cost rather than DLL bookkeeping cost.
const cleanBER = 1e-18

func runResilience(o Options) []*stats.Table {
	main, tail := resilienceScenarioTables(o)
	return []*stats.Table{
		main,
		resilienceBERSweep(o),
		resilienceLinkDown(o),
		tail,
	}
}

// resilienceScenarioTables runs every fault kind on one chain P2P
// transfer: DIMM 0 streams through the 4-DIMM chain group to DIMM 3, so
// every crossing traverses links 0-1, 1-2, 2-3 and a mid-chain fault is
// on the only static path. The same job outputs feed two tables: the
// recovery-counter view and the latency-tail view (how each fault kind
// moves pkt p50/p99 and how much stall the DLL retries injected).
func resilienceScenarioTables(o Options) (main, tail *stats.Table) {
	type scenario struct {
		name string
		plan fault.Plan // Seed filled per job
	}
	mid := 10 * sim.Microsecond
	scenarios := []scenario{
		{"healthy", fault.Plan{BER: cleanBER}},
		{"ber=1e-5", fault.Plan{BER: 1e-5}},
		{"stall 1-2 @10us+50us", fault.Plan{BER: cleanBER, Events: []fault.Event{
			{A: 1, B: 2, Kind: fault.KindStall, At: mid, Dur: 50 * sim.Microsecond}}}},
		{"degrade 1-2 x0.5", fault.Plan{BER: cleanBER, Events: []fault.Event{
			{A: 1, B: 2, Kind: fault.KindDegrade, At: 0, Factor: 0.5}}}},
		{"down 1-2 @10us", fault.Plan{BER: cleanBER, Events: []fault.Event{
			{A: 1, B: 2, Kind: fault.KindDown, At: mid}}}},
	}
	total := uint64(1 << 20)
	if !o.Quick {
		total = 8 << 20
	}
	outs := runJobs(o, len(scenarios), func(i int) faultOut {
		plan := scenarios[i].plan
		plan.Seed = jobSeed(o.Seed, i)
		w := &workloads.P2PBench{SrcDIMM: 0, DstDIMM: 3, TransferBytes: 4096, TotalBytes: total}
		return faultRun(o, w, sysConfig{"8D-4C", 8, 4}, &plan, nil)
	})

	tb := stats.NewTable("Resilience — chain P2P 0->3 under each fault kind (8D-4C, chain groups of 4)",
		"scenario", "makespan-ms", "slowdown", "replays", "timeouts", "reroutes", "fallback-pkts")
	lt := stats.NewTable("Resilience — latency tail under each fault kind (packet latency in ns; retry stall is the summed DLL stall)",
		"scenario", "pkt-p50", "pkt-p99", "retry-stall-ns", "link-util-max")
	base := outs[0].makespan
	for i, r := range outs {
		tb.Addf(scenarios[i].name, float64(r.makespan)/1e9,
			float64(r.makespan)/float64(base),
			fmt.Sprintf("%d", r.replays), fmt.Sprintf("%d", r.timeouts),
			fmt.Sprintf("%d", r.reroutes), fmt.Sprintf("%d", r.fallback))
		lt.Addf(scenarios[i].name, r.pktP50, r.pktP99, r.retryStallNs, r.utilMax)
	}
	return tb, lt
}

// resilienceBERSweep runs the Table IV suite on 8D-4C at increasing
// bit-error rates: the DLL recovers every injected error (checksums stay
// correct by construction — execute panics on divergence bugs) at a
// growing replay/timeout cost, and a hopeless link is eventually declared
// dead and routed around.
func resilienceBERSweep(o Options) *stats.Table {
	bers := []float64{cleanBER, 1e-8, 1e-6, 1e-4}
	labels := []string{"~0 (clean DLL)", "1e-8", "1e-6", "1e-4"}
	builders := p2pBuilders(o.sizes(), o.Seed)
	nB := len(bers)
	outs := runJobs(o, len(builders)*nB, func(i int) faultOut {
		w := builders[i/nB]()
		plan := &fault.Plan{Seed: jobSeed(o.Seed, 100+i), BER: bers[i%nB]}
		return faultRun(o, w, sysConfig{"8D-4C", 8, 4}, plan, nil)
	})

	tb := stats.NewTable("Resilience — BER sweep on 8D-4C (slowdown vs clean DLL)",
		"workload", "ber", "makespan-ms", "slowdown", "replays", "timeouts", "links-died", "fallback-pkts")
	for wi := 0; wi < len(builders); wi++ {
		base := outs[wi*nB].makespan
		for bi := 0; bi < nB; bi++ {
			r := outs[wi*nB+bi]
			tb.Addf(r.name, labels[bi], float64(r.makespan)/1e9,
				float64(r.makespan)/float64(base),
				fmt.Sprintf("%d", r.replays), fmt.Sprintf("%d", r.timeouts),
				fmt.Sprintf("%d", r.linkdown), fmt.Sprintf("%d", r.fallback))
		}
	}
	return tb
}

// resilienceLinkDown kills the 0-1 link at t=0 under every group
// topology on 16D-8C and reports how PageRank's exchange traffic
// recovers: rings reverse, meshes and tori reroute, and the severed
// chain falls back to CPU forwarding for the cut-off pairs.
func resilienceLinkDown(o Options) *stats.Table {
	topos := []core.TopologyKind{core.TopoChain, core.TopoRing, core.TopoMesh, core.TopoTorus}
	cfg := sysConfig{"16D-8C", 16, 8}
	s := o.sizes()
	outs := runJobs(o, len(topos)*2, func(i int) faultOut {
		topo := topos[i/2]
		plan := &fault.Plan{Seed: jobSeed(o.Seed, 200+i), BER: cleanBER}
		if i%2 == 1 {
			plan.Events = []fault.Event{{A: 0, B: 1, Kind: fault.KindDown, At: 0}}
		}
		w := workloads.NewPageRankFromGraph(workloads.RMAT(s.graphScale, 8, o.Seed+3), s.prIters)
		return faultRun(o, w, cfg, plan, func(c *nmp.Config) { c.DL.Topology = topo })
	})

	tb := stats.NewTable("Resilience — PageRank with link 0-1 down at t=0, by group topology (16D-8C)",
		"topology", "healthy-ms", "link-down-ms", "slowdown", "reroutes", "fallback-pkts")
	for ti, topo := range topos {
		h, d := outs[2*ti], outs[2*ti+1]
		tb.Addf(string(topo), float64(h.makespan)/1e9, float64(d.makespan)/1e9,
			float64(d.makespan)/float64(h.makespan),
			fmt.Sprintf("%d", d.reroutes), fmt.Sprintf("%d", d.fallback))
	}
	return tb
}

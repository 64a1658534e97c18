// latency.go reports tail latency and link utilization for the Table IV
// suite on DIMM-Link — the observability layer's end-to-end consumer.
// Each job attaches a private metrics.Collector to its system (passive
// observation: the instrumented run is timing-identical to a bare one)
// and extracts plain numbers, so parallel jobs stay deterministic and no
// system object is retained after the job returns.
package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "latency",
		Title: "Packet/access latency percentiles, latency breakdown, and per-link utilization (Table IV suite on DIMM-Link)",
		Run:   runLatency,
	})
}

// latOut is one latency job's result, extracted from the job's private
// collector and system before both are discarded.
type latOut struct {
	name     string
	makespan sim.Time

	pktP50, pktP95, pktP99 float64 // per-packet link latency, ns
	accP50, accP95, accP99 float64 // remote access latency, ns

	queueNs, serdesNs, relayNs, hostfwdNs float64 // breakdown means, ns
	retries                               uint64  // DLL retry count

	links     int     // directed DL links in the system
	utilMean  float64 // mean per-link utilization over [0, makespan]
	utilMax   float64 // highest-loaded link's utilization
	utilPeak  float64 // peak sampled instantaneous link utilization
	hostOccup float64 // mean host channel-bus occupation
}

// nsQ reads a histogram quantile in nanoseconds.
func nsQ(h *metrics.Histogram, q float64) float64 {
	return float64(h.Quantile(q)) / 1000
}

// nsMean reads a histogram mean in nanoseconds.
func nsMean(h *metrics.Histogram) float64 { return h.Mean() / 1000 }

// latencyRun executes one instrumented DIMM-Link run and extracts the
// latency and utilization summary.
func latencyRun(o Options, w workloads.Workload, cfg sysConfig) latOut {
	coll := metrics.NewCollector()
	out := execute(o, w, nmp.MechDIMMLink, cfg, func(c *nmp.Config) {
		c.Metrics = coll
	}, nil, false)

	reg := coll.Reg
	r := latOut{
		name:      w.Name(),
		makespan:  out.res.Makespan,
		pktP50:    nsQ(reg.Hist(metrics.HistPacketLat), 0.50),
		pktP95:    nsQ(reg.Hist(metrics.HistPacketLat), 0.95),
		pktP99:    nsQ(reg.Hist(metrics.HistPacketLat), 0.99),
		accP50:    nsQ(reg.Hist(metrics.HistAccessLat), 0.50),
		accP95:    nsQ(reg.Hist(metrics.HistAccessLat), 0.95),
		accP99:    nsQ(reg.Hist(metrics.HistAccessLat), 0.99),
		queueNs:   nsMean(reg.Hist(metrics.HistQueue)),
		serdesNs:  nsMean(reg.Hist(metrics.HistSerDes)),
		relayNs:   nsMean(reg.Hist(metrics.HistRelay)),
		hostfwdNs: nsMean(reg.Hist(metrics.HistHostFwd)),
		retries:   reg.Hist(metrics.HistDLLRetry).Count(),
		hostOccup: out.sys.Host().BusOccupation(out.res.Makespan),
	}
	for _, net := range out.sys.Link.Networks() {
		for i := range net.LinkKeys() {
			u := net.LinkUtilizationAt(i, out.res.Makespan)
			r.links++
			r.utilMean += u
			if u > r.utilMax {
				r.utilMax = u
			}
		}
	}
	if r.links > 0 {
		r.utilMean /= float64(r.links)
	}
	if sp := out.sys.Sampler(); sp != nil {
		for _, s := range sp.Series() {
			if len(s.Name) > 8 && s.Name[:8] == "linkutil" {
				if m := s.Max(); m > r.utilPeak {
					r.utilPeak = m
				}
			}
		}
	}
	return r
}

func runLatency(o Options) []*stats.Table {
	cfg := sysConfig{"16D-8C", 16, 8}
	builders := p2pBuilders(o.sizes(), o.Seed)
	// Sample instantaneous link utilization every 10 us of simulated time
	// (quick-mode kernels run for a few ms, so each series carries a few
	// hundred points).
	o.SamplePeriod = 10 * sim.Microsecond

	outs := runJobs(o, len(builders), func(i int) latOut {
		return latencyRun(o, builders[i](), cfg)
	})

	pct := stats.NewTable("Latency — packet and remote-access latency percentiles on DIMM-Link (16D-8C, ns)",
		"workload", "pkt-p50", "pkt-p95", "pkt-p99", "access-p50", "access-p95", "access-p99")
	brk := stats.NewTable("Latency — mean per-packet breakdown (ns): where a packet's time goes",
		"workload", "queue", "serdes", "relay", "hostfwd", "dll-retries")
	util := stats.NewTable("Latency — DL link utilization over the kernel and peak sampled instantaneous load",
		"workload", "links", "util-mean", "util-max", "util-peak", "hostbus-occ")
	for _, r := range outs {
		pct.Addf(r.name, r.pktP50, r.pktP95, r.pktP99, r.accP50, r.accP95, r.accP99)
		brk.Addf(r.name, r.queueNs, r.serdesNs, r.relayNs, r.hostfwdNs,
			fmt.Sprintf("%d", r.retries))
		util.Addf(r.name, fmt.Sprintf("%d", r.links), r.utilMean, r.utilMax,
			r.utilPeak, r.hostOccup)
	}
	return []*stats.Table{pct, brk, util}
}

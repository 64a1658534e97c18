// Package energy implements the event-counter energy model behind
// Figure 13, using the constants the paper publishes in Section V-C:
// DIMM-Link GRS links at 1.17 pJ/b, DDR activate 2.1 nJ, DDR RD/WR
// 14 pJ/b, off-chip memory-bus IO 22 pJ/b, a 1.8 W four-core NMP
// processor, and gem5/McPAT-profiled host polling and forwarding costs.
package energy

import (
	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/idc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Params holds per-event energy constants.
type Params struct {
	LinkPJPerBit    float64 // GRS SerDes (DIMM-Link)
	DRAMPJPerBit    float64 // DDR RD/WR
	BusIOPJPerBit   float64 // off-chip IO over the memory bus / dedicated bus
	ActivateNJ      float64 // one row activation
	NMPProcWatt     float64 // one DIMM's 4-core NMP processor
	HostFwdNJ       float64 // host CPU cost of forwarding one packet
	HostPollNJ      float64 // host CPU cost of one polling register read
	HostIdleWatt    float64 // host package power while orchestrating NMP
	HostComputeWatt float64 // host package power for the CPU baseline
}

// PaperParams returns the constants of Section V-C. The two host power
// numbers are our own settings (the paper folds them into its McPAT
// profile): 10 W of orchestration overhead during NMP runs and 95 W TDP
// for the 16-core baseline.
func PaperParams() Params {
	return Params{
		LinkPJPerBit:    1.17,
		DRAMPJPerBit:    14,
		BusIOPJPerBit:   22,
		ActivateNJ:      2.1,
		NMPProcWatt:     1.8,
		HostFwdNJ:       200,
		HostPollNJ:      20,
		HostIdleWatt:    10,
		HostComputeWatt: 95,
	}
}

// Breakdown is the Figure 13 energy decomposition, all in joules.
type Breakdown struct {
	DRAM  float64 // activations + RD/WR
	IDC   float64 // link + bus IO + host polling/forwarding
	Cores float64 // NMP processors (or host package for the baseline)
	Total float64
}

// Inputs collects everything the model consumes.
type Inputs struct {
	Makespan  sim.Time
	NumDIMMs  int
	DRAMStats []dram.Stats    // per DIMM
	IC        *stats.Counters // interconnect counters (nil for host baseline)
	Host      *stats.Counters // host counters (nil when no host involved)
	IsHostRun bool            // true for the 16-core CPU baseline
}

// Compute evaluates the model.
func Compute(p Params, in Inputs) Breakdown {
	var b Breakdown
	seconds := float64(in.Makespan) / 1e12

	for _, ds := range in.DRAMStats {
		bits := float64(ds.ReadBytes+ds.WriteBytes) * 8
		b.DRAM += bits*p.DRAMPJPerBit*1e-12 + float64(ds.Activations)*p.ActivateNJ*1e-9
	}

	if in.IC != nil {
		linkBits := float64(in.IC.Get(idc.CtrLinkBytes)) * 8
		dedBits := float64(in.IC.Get(idc.CtrDedBusBytes)) * 8
		b.IDC += linkBits*p.LinkPJPerBit*1e-12 + dedBits*p.BusIOPJPerBit*1e-12
	}
	if in.Host != nil {
		busBits := float64(in.Host.Get(host.CtrBusBytes)) * 8
		b.IDC += busBits * p.BusIOPJPerBit * 1e-12
		b.IDC += float64(in.Host.Get(host.CtrForwards)) * p.HostFwdNJ * 1e-9
		b.IDC += float64(in.Host.Get(host.CtrPolls)) * p.HostPollNJ * 1e-9
	}

	if in.IsHostRun {
		b.Cores = p.HostComputeWatt * seconds
	} else {
		b.Cores = p.NMPProcWatt*float64(in.NumDIMMs)*seconds + p.HostIdleWatt*seconds
	}
	b.Total = b.DRAM + b.IDC + b.Cores
	return b
}

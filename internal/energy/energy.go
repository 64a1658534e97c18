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

// The per-event energy constants of Section V-C. The two host powers are
// model choices (the paper folds them into its McPAT profile): 10 W of
// orchestration overhead during NMP runs and 95 W TDP for the 16-core
// baseline.
const (
	linkPJPerBit    = 1.17 // GRS SerDes (DIMM-Link)
	dramPJPerBit    = 14   // DDR RD/WR
	busIOPJPerBit   = 22   // off-chip IO over the memory bus / dedicated bus
	activateNJ      = 2.1  // one row activation
	nmpProcWatt     = 1.8  // one DIMM's 4-core NMP processor
	hostFwdNJ       = 200  // host CPU cost of forwarding one packet
	hostPollNJ      = 20   // host CPU cost of one polling register read
	hostIdleWatt    = 10   // host package power while orchestrating NMP
	hostComputeWatt = 95   // host package power for the CPU baseline
)

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

// Compute evaluates the model. Every product meets a run-time operand
// before a second constant, so Go never folds two of the constants into one
// exact constant at compile time, which could round differently.
func Compute(in Inputs) Breakdown {
	var b Breakdown
	seconds := float64(in.Makespan) / 1e12

	for _, ds := range in.DRAMStats {
		bits := float64(ds.ReadBytes+ds.WriteBytes) * 8
		b.DRAM += bits*dramPJPerBit*1e-12 + float64(ds.Activations)*activateNJ*1e-9
	}

	if in.IC != nil {
		linkBits := float64(in.IC.Get(idc.CtrLinkBytes)) * 8
		dedBits := float64(in.IC.Get(idc.CtrDedBusBytes)) * 8
		b.IDC += linkBits*linkPJPerBit*1e-12 + dedBits*busIOPJPerBit*1e-12
	}
	if in.Host != nil {
		busBits := float64(in.Host.Get(host.CtrBusBytes)) * 8
		b.IDC += busBits * busIOPJPerBit * 1e-12
		b.IDC += float64(in.Host.Get(host.CtrForwards)) * hostFwdNJ * 1e-9
		b.IDC += float64(in.Host.Get(host.CtrPolls)) * hostPollNJ * 1e-9
	}

	if in.IsHostRun {
		b.Cores = hostComputeWatt * seconds
	} else {
		b.Cores = nmpProcWatt*float64(in.NumDIMMs)*seconds + hostIdleWatt*seconds
	}
	b.Total = b.DRAM + b.IDC + b.Cores
	return b
}

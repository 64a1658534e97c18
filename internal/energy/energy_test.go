package energy

import (
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/idc"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestPaperConstants(t *testing.T) {
	if linkPJPerBit != 1.17 || dramPJPerBit != 14 || busIOPJPerBit != 22 ||
		activateNJ != 2.1 || nmpProcWatt != 1.8 {
		t.Fatal("published constants drifted")
	}
}

func TestDRAMEnergy(t *testing.T) {
	in := Inputs{
		Makespan: 0,
		NumDIMMs: 1,
		DRAMStats: []dram.Stats{{
			ReadBytes:   1000,
			WriteBytes:  1000,
			Activations: 100,
		}},
	}
	b := Compute(in)
	want := 2000*8*14e-12 + 100*2.1e-9
	if math.Abs(b.DRAM-want) > 1e-15 {
		t.Fatalf("DRAM energy %v, want %v", b.DRAM, want)
	}
}

func TestLinkVsBusEnergyRatio(t *testing.T) {
	// Moving a byte over GRS must be ~19x cheaper than over the memory bus
	// (1.17 vs 22 pJ/b) — the core of DIMM-Link's energy win.
	var link, bus stats.Counters
	link.Add(idc.CtrLinkBytes, 1<<20)
	bus.Add("hostbus.bytes", 1<<20)
	bLink := Compute(Inputs{NumDIMMs: 1, IC: &link})
	bBus := Compute(Inputs{NumDIMMs: 1, Host: &bus})
	ratio := bBus.IDC / bLink.IDC
	if math.Abs(ratio-22/1.17) > 1e-9 {
		t.Fatalf("bus/link energy ratio %v, want %v", ratio, 22/1.17)
	}
}

// TestIDCEnergyReadsIDCCounters books link and dedicated-bus bytes under
// the names the idc package counts them by, so a rename there cannot
// silently zero the IDC energy.
func TestIDCEnergyReadsIDCCounters(t *testing.T) {
	var ic stats.Counters
	ic.Add(idc.CtrLinkBytes, 1000)
	ic.Add(idc.CtrDedBusBytes, 10)
	b := Compute(Inputs{NumDIMMs: 1, IC: &ic})
	want := 1000*8*1.17e-12 + 10*8*22e-12
	if math.Abs(b.IDC-want) > 1e-18 {
		t.Fatalf("IDC energy %v, want %v", b.IDC, want)
	}
}

func TestForwardAndPollEnergy(t *testing.T) {
	var h stats.Counters
	h.Add("host.forwards", 10)
	h.Add("host.polls", 100)
	b := Compute(Inputs{NumDIMMs: 1, Host: &h})
	want := 10*200e-9 + 100*20e-9
	if math.Abs(b.IDC-want) > 1e-15 {
		t.Fatalf("host IDC energy %v, want %v", b.IDC, want)
	}
}

func TestCoreEnergyScalesWithTimeAndDIMMs(t *testing.T) {
	b := Compute(Inputs{Makespan: sim.Second, NumDIMMs: 16})
	want := 1.8*16 + 10
	if math.Abs(b.Cores-want) > 1e-9 {
		t.Fatalf("NMP core energy %v, want %v", b.Cores, want)
	}
	h := Compute(Inputs{Makespan: sim.Second, NumDIMMs: 16, IsHostRun: true})
	if math.Abs(h.Cores-95) > 1e-9 {
		t.Fatalf("host core energy %v, want 95", h.Cores)
	}
}

func TestTotalIsSum(t *testing.T) {
	var ic stats.Counters
	ic.Add(idc.CtrLinkBytes, 4096)
	b := Compute(Inputs{
		Makespan:  sim.Millisecond,
		NumDIMMs:  4,
		DRAMStats: []dram.Stats{{ReadBytes: 100, Activations: 1}},
		IC:        &ic,
	})
	if math.Abs(b.Total-(b.DRAM+b.IDC+b.Cores)) > 1e-18 {
		t.Fatal("total != sum of parts")
	}
	if b.DRAM == 0 || b.IDC == 0 || b.Cores == 0 {
		t.Fatalf("zero component: %+v", b)
	}
}

package idc

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
)

func geoN(dimms, channels int) mem.Geometry {
	return mem.Geometry{NumDIMMs: dimms, NumChannels: channels}
}

func modules(geo mem.Geometry) []*dram.Module {
	ms := make([]*dram.Module, geo.NumDIMMs)
	for i := range ms {
		ms[i] = dram.New(geo, false, i)
	}
	return ms
}

// pollAll builds the host of an MCN-style system: it polls every DIMM.
func pollAll(eng *sim.Engine, geo mem.Geometry) *host.Host {
	targets := make([]int, geo.NumDIMMs)
	for i := range targets {
		targets[i] = i
	}
	return host.New(eng, geo, host.BasePolling, targets)
}

func newMCN(dimms, channels int) (*MCN, *sim.Engine) {
	eng := sim.NewEngine()
	geo := geoN(dimms, channels)
	return NewMCN(geo, modules(geo), pollAll(eng, geo)), eng
}

func newAIM(dimms, channels int) *AIM {
	geo := geoN(dimms, channels)
	return NewAIM(geo, modules(geo))
}

func newABC(dimms, channels int) (*ABCDIMM, *sim.Engine) {
	eng := sim.NewEngine()
	geo := geoN(dimms, channels)
	return NewABCDIMM(geo, modules(geo), pollAll(eng, geo)), eng
}

func TestMCNReadPaysPollingAndTwoChannels(t *testing.T) {
	m, _ := newMCN(4, 2)
	done := m.Access(0, 0, m.geo.DIMMBase(2), 64, false)
	// Must include at least one poll interval (100 ns).
	if done < 100*sim.Nanosecond {
		t.Fatalf("MCN read %d ps didn't wait for polling", done)
	}
	if m.Counters().Get("remote.reads") != 1 || m.host.Counters.Get("host.forwards") != 1 {
		t.Fatalf("counters %v / %v", m.ctrs, m.host.Counters)
	}
	if m.host.Counters.Get("hostbus.bytes") < 128 {
		t.Fatal("data copy should occupy the channel twice")
	}
}

func TestMCNWriteLandsInDestinationDRAM(t *testing.T) {
	m, _ := newMCN(4, 2)
	m.Access(0, 3, m.geo.DIMMBase(1), 256, true)
	if m.dram[1].Stats.Writes == 0 {
		t.Fatal("destination DRAM not written")
	}
}

func TestMCNLocalAccessPanics(t *testing.T) {
	m, _ := newMCN(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Access(0, 1, m.geo.DIMMBase(1), 64, false)
}

func TestMCNBroadcastWritesEveryDIMM(t *testing.T) {
	m, _ := newMCN(8, 4)
	m.Broadcast(0, 0, m.geo.DIMMBase(0), 256)
	// 7 destination writes, each a host forwarding episode.
	if got := m.host.Counters.Get("host.forwards"); got != 7 {
		t.Fatalf("forwards = %d, want 7", got)
	}
}

func TestAIMReadLatency(t *testing.T) {
	a := newAIM(4, 2)
	done := a.Access(0, 0, a.geo.DIMMBase(2), 64, false)
	// No polling: command + DRAM + data, well under the MCN poll interval.
	if done > 100*sim.Nanosecond {
		t.Fatalf("AIM read %d ps — should not involve polling", done)
	}
	if a.Counters().Get(CtrDedBusBytes) != 64 {
		t.Fatalf("dedicated bus bytes %d", a.Counters().Get(CtrDedBusBytes))
	}
}

func TestAIMBusContentionSerializes(t *testing.T) {
	a := newAIM(8, 4)
	// Two disjoint DIMM pairs communicate; on AIM's shared bus they
	// serialize regardless.
	d1 := a.Access(0, 0, a.geo.DIMMBase(1), 4096, true)
	d2 := a.Access(0, 2, a.geo.DIMMBase(3), 4096, true)
	if d2 <= d1 {
		t.Fatalf("shared bus must serialize disjoint pairs: %d vs %d", d2, d1)
	}
	if a.bus.Utilization(d2) == 0 {
		t.Fatal("bus utilization not tracked")
	}
}

func TestAIMBroadcastSingleTransaction(t *testing.T) {
	a := newAIM(8, 4)
	a.Broadcast(0, 0, a.geo.DIMMBase(0), 256)
	if a.Counters().Get(CtrDedBusBytes) != 256 {
		t.Fatalf("AIM broadcast should cost one bus transaction, bytes=%d",
			a.Counters().Get(CtrDedBusBytes))
	}
}

func TestABCP2PFallsBackToForwarding(t *testing.T) {
	b, _ := newABC(4, 2)
	done := b.Access(0, 0, b.geo.DIMMBase(2), 64, false)
	if done < 100*sim.Nanosecond {
		t.Fatalf("ABC P2P %d ps didn't pay CPU forwarding", done)
	}
	if b.host.Counters.Get("host.forwards") != 1 {
		t.Fatal("ABC P2P should use CPU forwarding")
	}
}

func TestABCBroadcastScalesWithChannelsNotDIMMs(t *testing.T) {
	// ABC needs 1 broadcast-read + one broadcast-write per other channel;
	// MCN-BC needs 1 read + one write per other DIMM (7 on 8D-4C).
	for _, tc := range []struct{ dimms, channels int }{{4, 2}, {8, 4}, {12, 4}} {
		b, _ := newABC(tc.dimms, tc.channels)
		b.Broadcast(0, 0, b.geo.DIMMBase(0), 1024)
		if got, want := b.Counters().Get(CtrBcastXfers), uint64(tc.channels); got != want {
			t.Errorf("%dD-%dC: ABC broadcast transactions = %d, want %d (1 read + %d channel replays)",
				tc.dimms, tc.channels, got, want, tc.channels-1)
		}
	}
}

func TestABCBroadcastFasterThanMCNBC(t *testing.T) {
	b, _ := newABC(12, 4) // 3 DPC — ABC's sweet spot
	bDone := b.Broadcast(0, 0, b.geo.DIMMBase(0), 4096)
	m, _ := newMCN(12, 4)
	mDone := m.Broadcast(0, 0, m.geo.DIMMBase(0), 4096)
	if bDone >= mDone {
		t.Fatalf("ABC broadcast (%d) should beat MCN-BC (%d) at 3 DPC", bDone, mDone)
	}
}

func TestAIMBroadcastFastestMechanism(t *testing.T) {
	// Figure 12: AIM-BC outperforms everything (ideal single-transaction
	// broadcast over the dedicated bus).
	a := newAIM(8, 4)
	aDone := a.Broadcast(0, 0, a.geo.DIMMBase(0), 4096)
	b, _ := newABC(8, 4)
	bDone := b.Broadcast(0, 0, b.geo.DIMMBase(0), 4096)
	if aDone >= bDone {
		t.Fatalf("AIM-BC (%d) should beat ABC-DIMM (%d)", aDone, bDone)
	}
}

func TestCentralizedBarrier(t *testing.T) {
	var msgs int
	release := CentralizedBarrier(
		[]sim.Time{100, 900, 500}, []int{0, 1, 2},
		func(at sim.Time, src, dst int) sim.Time {
			msgs++
			return at + 50
		})
	// 2 gather messages (threads on DIMMs 1, 2) + 2 release messages;
	// the thread on the central DIMM only pays the local cost.
	if msgs != 4 {
		t.Fatalf("messages = %d, want 4", msgs)
	}
	// Last arrival 900 pays the intra-DIMM hand-off before its gather
	// message launches -> lands at 900+intra+50 (global); the individual
	// release adds 50 and the final hand-off intra again.
	if want := 900 + 2*IntraDIMMSyncCost + 100; release != want {
		t.Fatalf("release = %d, want %d", release, want)
	}
}

func TestCentralizedBarrierRemoteThreadsPayIntraCost(t *testing.T) {
	// Regression: remote threads' sync messages used to launch at the raw
	// arrival time, skipping the intra-DIMM hand-off that central-DIMM
	// threads were charged.
	const intra = IntraDIMMSyncCost
	arrivals := []sim.Time{100, 900, 500}
	var launches []sim.Time
	CentralizedBarrier(arrivals, []int{0, 1, 2},
		func(at sim.Time, src, dst int) sim.Time {
			if src != 0 { // gather direction only
				launches = append(launches, at)
			}
			return at + 50
		})
	// Gather messages launch in arrival order for the two remote threads
	// (arrivals 500 and 900), each after the intra-DIMM hand-off.
	want := []sim.Time{500 + intra, 900 + intra}
	if len(launches) != len(want) {
		t.Fatalf("gather launches = %d, want %d", len(launches), len(want))
	}
	for i, got := range launches {
		if got != want[i] {
			t.Fatalf("gather message %d launched at %d, want arrival+intra %d", i, got, want[i])
		}
	}
}

func TestBarrierOrderingAcrossMechanisms(t *testing.T) {
	// AIM sync (bus messages) must beat MCN sync (polled host forwarding).
	arr := []sim.Time{0, 0, 0, 0}
	dimms := []int{0, 1, 2, 3}
	a := newAIM(4, 2)
	aR := a.Barrier(arr, dimms)
	m, _ := newMCN(4, 2)
	mR := m.Barrier(arr, dimms)
	if aR >= mR {
		t.Fatalf("AIM barrier (%d) should beat MCN barrier (%d)", aR, mR)
	}
}

// TestCounterTaxonomyUnified drives every baseline mechanism through the
// full Interconnect surface and asserts all recorded counter names come
// from the shared Ctr* taxonomy, with the same core set populated by each
// mechanism for the same operations.
func TestCounterTaxonomyUnified(t *testing.T) {
	allowed := map[string]bool{
		CtrPackets: true, CtrRemoteReads: true, CtrRemoteWrites: true,
		CtrBroadcasts: true, CtrBcastXfers: true, CtrBarriers: true,
		CtrSyncMsgs: true, CtrDedBusBytes: true, CtrLinkBytes: true,
		CtrCollectives: true, CtrCollSteps: true, CtrCollBytes: true,
	}
	required := []string{
		CtrPackets, CtrRemoteReads, CtrRemoteWrites,
		CtrBroadcasts, CtrBcastXfers, CtrBarriers, CtrSyncMsgs,
	}
	drive := func(ic Interconnect, geo mem.Geometry) {
		ic.Access(0, 0, geo.DIMMBase(1), 256, false)
		ic.Access(0, 0, geo.DIMMBase(1), 256, true)
		ic.Broadcast(0, 0, geo.DIMMBase(0), 256)
		ic.Barrier([]sim.Time{0, 0, 0, 0}, []int{0, 1, 2, 3})
	}
	geo := geoN(8, 4)
	mcn, _ := newMCN(8, 4)
	aim := newAIM(8, 4)
	abc, _ := newABC(8, 4)
	for _, ic := range []Interconnect{mcn, aim, abc} {
		drive(ic, geo)
		for _, name := range ic.Counters().Names() {
			if !allowed[name] {
				t.Errorf("%s records counter %q outside the shared taxonomy", ic.Name(), name)
			}
		}
		for _, name := range required {
			if ic.Counters().Get(name) == 0 {
				t.Errorf("%s did not record %q for the same operations", ic.Name(), name)
			}
		}
	}
}

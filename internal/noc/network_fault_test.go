package noc

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func faultNet(t *testing.T, topo Topology, plan *fault.Plan) *Network {
	t.Helper()
	n := NewNetwork(topo, GRSLink())
	gid := make([]int, topo.Nodes())
	for i := range gid {
		gid[i] = i
	}
	n.SetFaults(fault.NewInjector(plan), gid)
	return n
}

func TestRouteAtReroutesRing(t *testing.T) {
	// Ring of 8 with link 0-1 dead: the static clockwise route 0->3 uses
	// it, so the router must reverse direction around the ring.
	n := faultNet(t, Ring{N: 8}, &fault.Plan{Seed: 1,
		Events: []fault.Event{{A: 0, B: 1, Kind: fault.KindDown, At: 0}}})
	path, rerouted, err := n.RouteAt(0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rerouted {
		t.Fatal("static route through dead link not rerouted")
	}
	want := []int{0, 7, 6, 5, 4, 3}
	if len(path) != len(want) {
		t.Fatalf("detour %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("detour %v, want %v", path, want)
		}
	}
	// A pair not using the dead link keeps its static route.
	_, rerouted, err = n.RouteAt(0, 4, 6)
	if err != nil || rerouted {
		t.Fatalf("unaffected pair rerouted=%v err=%v", rerouted, err)
	}
	// Before the link dies nothing reroutes... At=0 means dead from t=0,
	// so check the time dimension with a later event instead.
	n2 := faultNet(t, Ring{N: 8}, &fault.Plan{Seed: 1,
		Events: []fault.Event{{A: 0, B: 1, Kind: fault.KindDown, At: 1000}}})
	if _, rr, _ := n2.RouteAt(999, 0, 3); rr {
		t.Fatal("rerouted before the link died")
	}
	if _, rr, _ := n2.RouteAt(1000, 0, 3); !rr {
		t.Fatal("no reroute at the death time")
	}
}

func TestRouteAtPartitionedChain(t *testing.T) {
	// Chain 0-1-2-3 with link 1-2 dead is partitioned: {0,1} | {2,3}.
	n := faultNet(t, Chain{N: 4}, &fault.Plan{Seed: 1,
		Events: []fault.Event{{A: 1, B: 2, Kind: fault.KindDown, At: 0}}})
	if _, _, err := n.RouteAt(0, 0, 3); err == nil {
		t.Fatal("partitioned pair should error")
	}
	if _, _, err := n.RouteAt(0, 0, 1); err != nil {
		t.Fatalf("same-side pair errored: %v", err)
	}
}

func TestHopCrossingDownAndDegrade(t *testing.T) {
	n := faultNet(t, Chain{N: 4}, &fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 0, B: 1, Kind: fault.KindDown, At: 5000},
		{A: 2, B: 3, Kind: fault.KindDegrade, At: 0, Factor: 0.5},
	}})
	// Alive before its death time, dead after.
	if _, _, err := n.HopCrossing(0, 1, 0, 256); err != nil {
		t.Fatalf("crossing before death: %v", err)
	}
	if _, _, err := n.HopCrossing(0, 1, 5000, 256); err == nil {
		t.Fatal("crossing a dead link should error")
	}
	// Half bandwidth doubles serialization relative to a healthy link.
	healthy := NewNetwork(Chain{N: 4}, GRSLink())
	hArr, _, err := healthy.HopCrossing(2, 3, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	dArr, _, err := n.HopCrossing(2, 3, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	ser := healthy.serTime(256)
	if dArr != hArr+ser {
		t.Fatalf("degraded arrive %d, want healthy %d + ser %d", dArr, hArr, ser)
	}
}

func TestHopCrossingStall(t *testing.T) {
	n := faultNet(t, Chain{N: 2}, &fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 0, B: 1, Kind: fault.KindStall, At: 1000, Dur: 100 * sim.Nanosecond},
	}})
	before, _, err := n.HopCrossing(0, 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Inject inside the window on a fresh network: the head waits for the
	// stall to clear, shifting the arrival by the remaining window.
	n2 := faultNet(t, Chain{N: 2}, &fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 0, B: 1, Kind: fault.KindStall, At: 0, Dur: 100 * sim.Nanosecond},
	}})
	during, _, err := n2.HopCrossing(0, 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if during != before+100*sim.Nanosecond {
		t.Fatalf("stalled crossing arrived at %d, want %d", during, before+100*sim.Nanosecond)
	}
}

func TestHopCrossingVerdictCounts(t *testing.T) {
	// A brutal BER makes essentially every crossing corrupt or drop.
	n := faultNet(t, Chain{N: 2}, &fault.Plan{Seed: 3, BER: 0.01})
	var corrupted, dropped int
	for i := 0; i < 200; i++ {
		_, verdict, err := n.HopCrossing(0, 1, sim.Time(i)*1000, 256)
		if err != nil {
			t.Fatal(err)
		}
		switch verdict {
		case fault.VerdictCorrupt:
			corrupted++
		case fault.VerdictDrop:
			dropped++
		}
	}
	if corrupted == 0 || dropped == 0 {
		t.Fatalf("verdicts not observed: corrupted=%d dropped=%d", corrupted, dropped)
	}
}

func TestSpanningTreeAtPartition(t *testing.T) {
	// Chain 0-1-2-3 severed at 1-2, rooted at 0: nodes 2 and 3 are
	// unreachable and must be reported, not panicked over.
	n := faultNet(t, Chain{N: 4}, &fault.Plan{Seed: 1,
		Events: []fault.Event{{A: 1, B: 2, Kind: fault.KindDown, At: 0}}})
	parent, order, unreachable := n.BroadcastPlanAt(0, 0)
	if parent[1] != 0 {
		t.Fatalf("parent[1] = %d", parent[1])
	}
	if len(unreachable) != 2 || unreachable[0] != 2 || unreachable[1] != 3 {
		t.Fatalf("unreachable = %v, want [2 3]", unreachable)
	}
	// The delivery order must skip the unreachable side.
	if len(order) != 2 {
		t.Fatalf("order = %v, want [0 1]", order)
	}
}

func TestForcedDownTriggersReroute(t *testing.T) {
	// ForceDown (what the DLL does on retry exhaustion) must be visible
	// to the router exactly like a planned death.
	n := faultNet(t, Ring{N: 4}, &fault.Plan{Seed: 1, BER: 1e-12})
	if _, rr, _ := n.RouteAt(0, 0, 1); rr {
		t.Fatal("healthy ring rerouted")
	}
	n.inj.ForceDown(0, 1, 500)
	path, rr, err := n.RouteAt(500, 0, 1)
	if err != nil || !rr {
		t.Fatalf("forced-down link not rerouted: %v", err)
	}
	if len(path) != 4 { // 0-3-2-1 the long way round
		t.Fatalf("detour %v", path)
	}
}

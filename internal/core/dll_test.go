package core

import (
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
)

// testHost builds the host a DIMM-Link system with this configuration
// polls and forwards through in the given mode.
func testHost(eng *sim.Engine, geo mem.Geometry, mode host.PollingMode, cfg Config) *host.Host {
	return host.New(eng, geo, mode, PollTargets(geo.NumDIMMs, mode, cfg))
}

// mustNewLink is NewLink for configurations a test knows to be valid.
func mustNewLink(eng *sim.Engine, geo mem.Geometry, modules []*dram.Module, mode host.PollingMode, cfg Config) *Link {
	l, err := NewLink(geo, modules, testHost(eng, geo, mode, cfg), cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// TestFaultOnMissingLinkRejected pins that a fault event on a DIMM pair
// with no DL link between them is a construction error naming the event
// index and the pair, rather than an inert event that leaves the run
// fault-free.
func TestFaultOnMissingLinkRejected(t *testing.T) {
	build := func(dimms, groups int, topo TopologyKind, spec string) error {
		plan, err := fault.ParsePlan(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		geo := geoN(dimms, dimms/2)
		cfg := DefaultConfig(groups)
		cfg.Topology = topo
		cfg.Fault = plan
		eng := sim.NewEngine()
		_, err = NewLink(geo, testModules(geo), testHost(eng, geo, host.BasePolling, cfg), cfg)
		return err
	}
	for _, tc := range []struct {
		dimms, groups int
		topo          TopologyKind
		spec, want    string // want "" = accepted
	}{
		{8, 2, TopoChain, "down=1-2@50us", ""},
		{8, 2, TopoChain, "ber=1e-7,down=2-1@1us", ""},
		{8, 2, TopoRing, "down=0-3@1us", ""},              // ring closes 0-3 in a group of 4
		{8, 2, TopoChain, "down=0-9@1us", "event 0: 0-9"}, // DIMM 9 does not exist
		{8, 2, TopoChain, "down=0-2@1us", "event 0: 0-2"}, // chain skips a slot
		{8, 2, TopoChain, "down=3-4@1us", "event 0: 3-4"}, // split across DL groups
		{8, 2, TopoChain, "down=0-1@1us,stall=1-3@1us+1us", "event 1: 1-3"},
		{8, 1, TopoMesh, "degrade=0-5@0*0.5", "event 0: 0-5"}, // 4x2 mesh: 0 and 5 are diagonal
	} {
		err := build(tc.dimms, tc.groups, tc.topo, tc.spec)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s on %dD %s: rejected a real link: %v", tc.spec, tc.dimms, tc.topo, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s on %dD %s: error %v, want one naming %q", tc.spec, tc.dimms, tc.topo, err, tc.want)
		}
	}
}

// newFaultLink is newTestLink with a fault plan attached.
func newFaultLink(dimms, channels, groups int, plan *fault.Plan) *Link {
	eng := sim.NewEngine()
	geo := geoN(dimms, channels)
	modules := make([]*dram.Module, dimms)
	for i := range modules {
		modules[i] = dram.New(geo, dram.DDR4_3200(), i)
	}
	cfg := DefaultConfig(groups)
	cfg.Fault = plan
	return mustNewLink(eng, geo, modules, host.BasePolling, cfg)
}

// TestInactivePlanIsByteIdentical pins the acceptance criterion that a
// nil and an inactive fault plan take the identical code path: same
// completion times, same counters.
func TestInactivePlanIsByteIdentical(t *testing.T) {
	run := func(plan *fault.Plan) (sim.Time, uint64) {
		l := newFaultLink(8, 4, 1, plan)
		var last sim.Time
		for d := 1; d < 8; d++ {
			last = l.Access(last, 0, l.geo.DIMMBase(d), 1024, d%2 == 0)
		}
		last = l.Broadcast(last, 0, 0, 4096)
		return last, l.Counters().Get("link.bytes")
	}
	t0, b0 := run(nil)
	t1, b1 := run(&fault.Plan{Seed: 99}) // inactive: no BER, no events
	if t0 != t1 || b0 != b1 {
		t.Fatalf("inactive plan changed the run: %d/%d bytes %d/%d", t0, t1, b0, b1)
	}
	if t2, b2 := run(nil); t2 != t0 || b2 != b0 {
		t.Fatalf("baseline itself nondeterministic")
	}
}

// TestChainSeveredFallsBackToHost is the headline recovery scenario: a
// chain group with one link permanently down completes every access via
// the host-forwarding fallback — no panic, no hang — and reports the
// traffic in the fault counters.
func TestChainSeveredFallsBackToHost(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 3, B: 4, Kind: fault.KindDown, At: 0},
	}}
	l := newFaultLink(8, 4, 1, plan) // one chain group 0..7, severed at 3-4
	// DIMM 0 writes across the cut to DIMM 6 and reads back.
	done := l.Access(0, 0, l.geo.DIMMBase(6), 512, true)
	done = l.Access(done, 0, l.geo.DIMMBase(6), 512, false)
	if done == 0 {
		t.Fatal("no progress")
	}
	c := l.Counters()
	if c.Get("fault.fallback.packets") == 0 || c.Get("fault.fallback.bytes") == 0 {
		t.Fatalf("severed chain did not use the host fallback: %v", c)
	}
	if l.host.Counters.Get("host.forwards") == 0 {
		t.Fatal("fallback did not reach the host forwarder")
	}
	// Same-side traffic must stay on the links.
	before := c.Get("fault.fallback.packets")
	l.Access(done, 0, l.geo.DIMMBase(2), 512, false)
	if c.Get("fault.fallback.packets") != before {
		t.Fatal("same-side access needlessly fell back to the host")
	}
}

// TestRingReroutesAroundDeadLink: a ring group loses one link and the
// router reverses direction instead of involving the host.
func TestRingReroutesAroundDeadLink(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 0, B: 1, Kind: fault.KindDown, At: 0},
	}}
	eng := sim.NewEngine()
	geo := geoN(8, 4)
	modules := make([]*dram.Module, 8)
	for i := range modules {
		modules[i] = dram.New(geo, dram.DDR4_3200(), i)
	}
	cfg := DefaultConfig(1)
	cfg.Topology = TopoRing
	cfg.Fault = plan
	l := mustNewLink(eng, geo, modules, host.BasePolling, cfg)

	// 0 -> 2's static route is clockwise through the dead 0-1 link.
	done := l.Access(0, 0, l.geo.DIMMBase(2), 256, false)
	if done == 0 {
		t.Fatal("no progress")
	}
	c := l.Counters()
	if c.Get("fault.reroutes") == 0 {
		t.Fatal("ring did not reroute around the dead link")
	}
	if c.Get("fault.fallback.packets") != 0 {
		t.Fatal("ring recovery should not need the host fallback")
	}
}

// TestBERCausesReplaysAndCompletes: a lossy link replays and times out
// but every transaction still completes, and a lossy run is slower than
// a clean one under the same active DLL.
func TestBERCausesReplaysAndCompletes(t *testing.T) {
	run := func(ber float64) (sim.Time, *Link) {
		l := newFaultLink(8, 4, 1, &fault.Plan{Seed: 7, BER: ber})
		var last sim.Time
		for i := 0; i < 20; i++ {
			last = l.Access(last, 0, l.geo.DIMMBase(1+i%7), 2048, i%2 == 0)
		}
		return last, l
	}
	// An active plan needs a nonzero knob; use a vanishing BER as the
	// clean-DLL baseline (no crossing is hit at 1e-18 over this traffic).
	clean, lClean := run(1e-18)
	lossy, lLossy := run(1e-4)
	if n := lClean.Counters().Get("fault.replays") + lClean.Counters().Get("fault.timeouts"); n != 0 {
		t.Fatalf("clean run replayed %d times", n)
	}
	c := lLossy.Counters()
	if c.Get("fault.corrupted") == 0 && c.Get("fault.timeouts") == 0 {
		t.Fatalf("BER=1e-4 injected nothing: %v", c)
	}
	if c.Get("fault.replays")+c.Get("fault.timeouts") == 0 {
		t.Fatal("hits did not trigger DLL recovery")
	}
	if lossy <= clean {
		t.Fatalf("lossy run (%d) not slower than clean run (%d)", lossy, clean)
	}
}

// TestRetryExhaustionKillsLink: a link so broken that every crossing
// fails gets declared dead after maxRetries and traffic completes some
// other way (reroute or host fallback).
func TestRetryExhaustionKillsLink(t *testing.T) {
	// BER high enough that per-crossing hit probability is ~1 for a
	// 272-byte packet: every attempt corrupts or drops.
	l := newFaultLink(8, 4, 1, &fault.Plan{Seed: 3, BER: 0.01})
	done := l.Access(0, 0, l.geo.DIMMBase(1), 4096, true)
	if done == 0 {
		t.Fatal("no progress")
	}
	c := l.Counters()
	if c.Get("fault.linkdown") == 0 {
		t.Fatal("hopeless link was never declared dead")
	}
	if c.Get("fault.fallback.packets") == 0 {
		t.Fatal("with every chain link hopeless, traffic must end up on the host")
	}
}

// TestBroadcastAcrossSeveredChain: an intra-group broadcast reaches the
// partitioned side via the host and still reports a meaningful finish
// time.
func TestBroadcastAcrossSeveredChain(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 3, B: 4, Kind: fault.KindDown, At: 0},
	}}
	l := newFaultLink(8, 4, 1, plan)
	fin := l.Broadcast(0, 0, 0, 1024)
	if fin == 0 {
		t.Fatal("broadcast made no progress")
	}
	if l.Counters().Get("fault.fallback.packets") == 0 {
		t.Fatal("severed side never received the broadcast")
	}
}

// TestBarrierSurvivesSeveredChain: hierarchical synchronization spans
// the cut (master on one side, threads on both) without hanging.
func TestBarrierSurvivesSeveredChain(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 3, B: 4, Kind: fault.KindDown, At: 0},
	}}
	l := newFaultLink(8, 4, 1, plan)
	arrivals := make([]sim.Time, 8)
	dimms := make([]int, 8)
	for i := range arrivals {
		arrivals[i] = sim.Time(i) * 100
		dimms[i] = i
	}
	release := l.Barrier(arrivals, dimms)
	if release <= arrivals[7] {
		t.Fatalf("barrier released at %d before last arrival", release)
	}
}

// TestFaultDeterminism: two identical lossy runs are bit-identical —
// the foundation of the -jobs N reproducibility contract.
func TestFaultDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		plan := &fault.Plan{Seed: 11, BER: 1e-6, Events: []fault.Event{
			{A: 2, B: 3, Kind: fault.KindDown, At: 50 * sim.Microsecond},
		}}
		l := newFaultLink(8, 4, 1, plan)
		var last sim.Time
		for i := 0; i < 50; i++ {
			last = l.Access(last, i%8, l.geo.DIMMBase((i+3)%8), 1024, i%2 == 0)
		}
		c := l.Counters()
		return last, c.Get("fault.replays"), c.Get("fault.fallback.packets")
	}
	t1, r1, f1 := run()
	t2, r2, f2 := run()
	if t1 != t2 || r1 != r2 || f1 != f2 {
		t.Fatalf("lossy run nondeterministic: %d/%d %d/%d %d/%d", t1, t2, r1, r2, f1, f2)
	}
}

// TestDegradedLinkSlowsTransfers: half bandwidth on the first link makes
// a transfer across it slower than the healthy-DLL baseline.
func TestDegradedLinkSlowsTransfers(t *testing.T) {
	run := func(plan *fault.Plan) sim.Time {
		l := newFaultLink(8, 4, 1, plan)
		return l.Access(0, 0, l.geo.DIMMBase(1), 65536, true)
	}
	healthy := run(&fault.Plan{Seed: 1, BER: 1e-18}) // active DLL, no faults
	degraded := run(&fault.Plan{Seed: 1, Events: []fault.Event{
		{A: 0, B: 1, Kind: fault.KindDegrade, At: 0, Factor: 0.5},
	}})
	if degraded <= healthy {
		t.Fatalf("half-bandwidth link not slower: %d vs %d", degraded, healthy)
	}
}

// TestErrorInjectionUnderActivePlan pins that ErrorEvery's CRC-error
// retries apply on the one transport path an active plan also takes: an
// inert plan plus ErrorEvery retries and finishes later than the plan
// alone.
func TestErrorInjectionUnderActivePlan(t *testing.T) {
	run := func(errorEvery uint64) (sim.Time, uint64) {
		eng := sim.NewEngine()
		geo := geoN(4, 2)
		modules := make([]*dram.Module, 4)
		for i := range modules {
			modules[i] = dram.New(geo, dram.DDR4_3200(), i)
		}
		cfg := DefaultConfig(1)
		cfg.Fault = &fault.Plan{Seed: 1, BER: 1e-18}
		cfg.ErrorEvery = errorEvery
		l := mustNewLink(eng, geo, modules, host.BasePolling, cfg)
		done := l.Access(0, 0, l.geo.DIMMBase(1), 64, false)
		return done, l.Counters().Get("link.retries")
	}
	clean, _ := run(0)
	done, retries := run(2)
	if retries == 0 {
		t.Fatal("no retries with error injection under an active plan")
	}
	if done <= clean {
		t.Fatalf("retries should add latency: %d vs clean %d", done, clean)
	}
}

package exp

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestInactiveFaultPlanMatchesNoPlan pins the acceptance criterion that
// fault-disabled output is byte-identical to a build with no fault
// support in the loop: an inactive plan (no BER, no events) must render
// the exact bytes a nil plan renders, through the public experiment path.
func TestInactiveFaultPlanMatchesNoPlan(t *testing.T) {
	render := func(plan *fault.Plan) []byte {
		e, ok := ByID("table1")
		if !ok {
			t.Fatal("table1 not registered")
		}
		o := Options{Quick: true, Seed: 42}
		o.Jobs = 2
		o.Fault = plan
		var buf bytes.Buffer
		for _, tb := range e.Run(o) {
			tb.Render(&buf)
		}
		return buf.Bytes()
	}
	base := render(nil)
	inactive := render(&fault.Plan{Seed: 12345})
	if !bytes.Equal(base, inactive) {
		t.Fatalf("inactive fault plan changed table1 output:\n%s\n---\n%s", base, inactive)
	}
}

// TestFaultGridJobsDeterminism extends the -jobs reproducibility contract
// to fault injection: a grid covering every fault kind (BER, stall,
// degrade, down) must render byte-identical tables whether it runs
// serially or fanned across four workers, because every error draw is a
// pure function of the plan seed and the packet's position in the
// per-link stream — never of scheduling.
func TestFaultGridJobsDeterminism(t *testing.T) {
	render := func(jobs int) []byte {
		o := Options{Quick: true, Seed: 42}
		o.Jobs = jobs
		var buf bytes.Buffer
		resilienceScenarios(o).Render(&buf)
		return buf.Bytes()
	}
	serial1 := render(1)
	serial2 := render(1)
	if !bytes.Equal(serial1, serial2) {
		t.Fatalf("two serial fault grids differ:\n%s\n---\n%s", serial1, serial2)
	}
	parallel := render(4)
	if !bytes.Equal(serial1, parallel) {
		t.Fatalf("jobs=1 and jobs=4 fault grids differ:\n%s\n---\n%s", serial1, parallel)
	}
}

// TestFaultSweepCompletes runs a single lossy Table IV workload through
// the experiment path end-to-end: the run must finish (no hang on a
// severed route) and report recovery activity in the counters.
func TestFaultSweepCompletes(t *testing.T) {
	o := Options{Quick: true, Seed: 42}
	o.Jobs = 1
	plan := &fault.Plan{Seed: jobSeed(o.Seed, 7), BER: 1e-5, Events: []fault.Event{
		{A: 1, B: 2, Kind: fault.KindDown, At: 50 * sim.Microsecond},
	}}
	w := p2pBuilders(o.sizes(), o.Seed)[1]() // Hotspot: cheap, link-heavy
	r := faultRun(o, w, sysConfig{"8D-4C", 8, 4}, plan, nil)
	if r.makespan == 0 {
		t.Fatal("faulted run made no progress")
	}
	if r.replays+r.timeouts+r.reroutes+r.fallback == 0 {
		t.Fatalf("BER=1e-5 with a dead link injected no recovery activity: %+v", r)
	}
}

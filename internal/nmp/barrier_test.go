package nmp

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// barrierMechs are the five synchronization schemes of Figure 14 and the
// baselines: DIMM-Link hierarchical and centralized, MCN, AIM and
// ABC-DIMM.
var barrierMechs = []struct {
	name string
	mech Mechanism
	sync core.SyncMode
}{
	{"dl-hier", MechDIMMLink, core.SyncHierarchical},
	{"dl-central", MechDIMMLink, core.SyncCentralized},
	{"mcn", MechMCN, 0},
	{"aim", MechAIM, 0},
	{"abc-dimm", MechABCDIMM, 0},
}

// freshBarrier runs one barrier on a newly built system, so earlier
// bookings of links, buses and the host cannot leak between runs.
func freshBarrier(t *testing.T, dimms, channels int, mech Mechanism, sync core.SyncMode, arrivals []sim.Time, threadDIMM []int) sim.Time {
	t.Helper()
	cfg := DefaultConfig(dimms, channels, mech)
	cfg.DL.Sync = sync
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.IC.Barrier(arrivals, threadDIMM)
}

// TestBarrierReleaseIgnoresThreadNumbering checks that a barrier's
// release depends only on the set of (arrival, DIMM) pairs, not on the
// order the threads are numbered in: every listing of the same pairs
// must release at the same time, on every mechanism.
func TestBarrierReleaseIgnoresThreadNumbering(t *testing.T) {
	// A thread arriving late on DIMM 1 and one arriving early on DIMM 2
	// share the DL link 1-0 towards the central master on DIMM 0; the
	// early message must book it first however the two are numbered.
	for _, m := range barrierMechs {
		a := freshBarrier(t, 8, 4, m.mech, m.sync, []sim.Time{10 * sim.Microsecond, 0}, []int{1, 2})
		b := freshBarrier(t, 8, 4, m.mech, m.sync, []sim.Time{0, 10 * sim.Microsecond}, []int{2, 1})
		if a != b {
			t.Errorf("%s at 8D-4C: release %d ps listed as {1@10us, 2@0}, %d ps listed as {2@0, 1@10us}", m.name, a, b)
		}
	}

	// Random pair sets, with arrivals on a coarse grid so that ties
	// between DIMMs occur, each released once as drawn and once shuffled.
	rng := rand.New(rand.NewSource(31))
	for _, shape := range [][2]int{{8, 4}, {16, 8}} {
		dimms, channels := shape[0], shape[1]
		for probe := 0; probe < 40; probe++ {
			n := 2 + rng.Intn(3*dimms)
			arrivals := make([]sim.Time, n)
			threadDIMM := make([]int, n)
			for i := range arrivals {
				arrivals[i] = sim.Time(rng.Intn(8)) * 500 * sim.Nanosecond
				threadDIMM[i] = rng.Intn(dimms)
			}
			perm := rng.Perm(n)
			permArr := make([]sim.Time, n)
			permDIMM := make([]int, n)
			for i, p := range perm {
				permArr[i], permDIMM[i] = arrivals[p], threadDIMM[p]
			}
			for _, m := range barrierMechs {
				a := freshBarrier(t, dimms, channels, m.mech, m.sync, arrivals, threadDIMM)
				b := freshBarrier(t, dimms, channels, m.mech, m.sync, permArr, permDIMM)
				if a != b {
					t.Fatalf("%s at %dD-%dC, probe %d: release %d ps for %v on DIMMs %v, %d ps for the listing %v on %v",
						m.name, dimms, channels, probe, a, arrivals, threadDIMM, b, permArr, permDIMM)
				}
			}
		}
	}
}

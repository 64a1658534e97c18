package spec

import "testing"

// allocsPerEvent runs the specs once as a warm-up, then once measured,
// and returns the measured heap allocations per engine event summed over
// them. The count is exact: testing.AllocsPerRun with one run reports the
// whole run's allocations, taken at GOMAXPROCS=1.
func allocsPerEvent(t *testing.T, sps []Spec) float64 {
	t.Helper()
	var events uint64
	allocs := testing.AllocsPerRun(1, func() {
		events = 0
		for _, sp := range sps {
			run, err := sp.RunSim(SimHooks{})
			if err != nil {
				t.Fatal(err)
			}
			events += run.Sys.Eng.Processed()
		}
	})
	return allocs / float64(events)
}

// TestAllocBudget holds the simulator's heap allocations per engine event
// under a budget on three fixed suites: the canonical p2p transfer, the
// Table IV workloads, and AllReduce training under every IDC mechanism.
// Allocation counts are deterministic, so a rise past the budget is a
// regression, not noise.
//
// Measured with go1.24.0 linux/amd64 (allocs/event): p2p 0.0377,
// table4 0.4866, train 0.2745. Each budget is
// max(1.10*measured, measured+0.05).
//
// The test is serial and skipped under -short: the race detector adds
// allocations of its own.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without -short and -race")
	}
	var table4, train []Spec
	for _, w := range []string{"bfs", "hotspot", "kmeans", "nw", "pr", "sssp", "tspow"} {
		table4 = append(table4, Spec{Kind: KindSim, Workload: w, Scale: 11, Iters: 2})
	}
	for _, m := range []string{"dimm-link", "mcn", "aim", "abc-dimm"} {
		train = append(train, Spec{Kind: KindSim, Workload: "train", Mech: m, Scale: 13, Iters: 2})
	}
	for _, c := range []struct {
		name     string
		sps      []Spec
		measured float64
	}{
		{"p2p", []Spec{{Kind: KindSim, Workload: "p2p"}}, 0.0377},
		{"table4", table4, 0.4866},
		{"train", train, 0.2745},
	} {
		t.Run(c.name, func(t *testing.T) {
			budget := max(1.10*c.measured, c.measured+0.05)
			got := allocsPerEvent(t, c.sps)
			t.Logf("%.4f allocs/event (budget %.4f)", got, budget)
			if got > budget {
				t.Errorf("%.4f allocs/event exceeds the budget %.4f (measured %.4f)", got, budget, c.measured)
			}
		})
	}
}

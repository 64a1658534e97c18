package spec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ingest"
	"repro/internal/trace"
)

// allocsPerEvent runs the specs once as a warm-up, then once measured,
// and returns the measured heap allocations per engine event summed over
// them. The count is exact: testing.AllocsPerRun with one run reports the
// whole run's allocations, taken at GOMAXPROCS=1. Trace-kind specs replay
// a fresh copy of td's records each time, since ReplayTrace maps them in
// place.
func allocsPerEvent(t *testing.T, sps []Spec, td *ingest.Data) float64 {
	t.Helper()
	var events uint64
	allocs := testing.AllocsPerRun(1, func() {
		events = 0
		for _, sp := range sps {
			var (
				run *SimRun
				err error
			)
			if sp.Kind == KindTrace {
				fresh := *td
				fresh.Records = slices.Clone(td.Records)
				run, err = sp.ReplayTrace(&fresh, SimHooks{})
			} else {
				run, err = sp.RunSim(SimHooks{})
			}
			if err != nil {
				t.Fatal(err)
			}
			events += run.Sys.Eng.Processed()
		}
	})
	return allocs / float64(events)
}

// allocTrace ingests a seeded trace shaped like the benchmark's
// trace-idc input at a smaller size: 64 B accesses by 32 threads, a
// quarter of them writes, half streaming through the thread's own region
// and half anywhere in a shared 1 GiB footprint.
func allocTrace(t *testing.T, records int) *ingest.Data {
	t.Helper()
	const threads, region = 32, (1 << 30) / 32
	rng := rand.New(rand.NewSource(42))
	tr := &trace.Trace{Threads: threads}
	var cursor [threads]uint64
	for range records {
		th := rng.Intn(threads)
		rec := trace.Record{Thread: th, Size: 64, Write: rng.Intn(4) == 0, Gap: uint64(rng.Intn(16))}
		if rng.Intn(2) == 0 {
			rec.Addr = uint64(th)*region + cursor[th]
			cursor[th] = (cursor[th] + 64) % region
		} else {
			rec.Addr = uint64(rng.Int63n(1<<30)) &^ 63
		}
		tr.Records = append(tr.Records, rec)
	}
	var buf bytes.Buffer
	if err := ingest.WriteTrace(&buf, tr, ingest.FormatBinary); err != nil {
		t.Fatal(err)
	}
	td, err := ingest.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

// TestAllocBudget holds the simulator's heap allocations per engine event
// under a budget on four fixed suites: the canonical p2p transfer, the
// Table IV workloads, AllReduce training under every IDC mechanism, and
// a generated trace replayed through ReplayTrace with page mapping.
// Allocation counts are deterministic, so a rise past the budget is a
// regression, not noise.
//
// Measured with go1.24.0 linux/amd64 (allocs/event): p2p 0.0254,
// table4 0.4057, train 0.1940, replay 0.0059. Each budget is
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
	td := allocTrace(t, 50_000)
	replay := []Spec{{Kind: KindTrace, Mech: "dimm-link", Map: ingest.MapPage, Trace: td.Hash}}
	for _, c := range []struct {
		name     string
		sps      []Spec
		measured float64
	}{
		{"p2p", []Spec{{Kind: KindSim, Workload: "p2p"}}, 0.0254},
		{"table4", table4, 0.4057},
		{"train", train, 0.1940},
		{"replay", replay, 0.0059},
	} {
		t.Run(c.name, func(t *testing.T) {
			budget := max(1.10*c.measured, c.measured+0.05)
			got := allocsPerEvent(t, c.sps, td)
			t.Logf("%.4f allocs/event (budget %.4f)", got, budget)
			if got > budget {
				t.Errorf("%.4f allocs/event exceeds the budget %.4f (measured %.4f)", got, budget, c.measured)
			}
		})
	}
}

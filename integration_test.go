package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/nmp"
	"repro/internal/workloads"
)

// TestEndToEndDeterminism runs the same workload on the same system twice
// and requires bit-identical makespans, counters and functional results —
// the property every experiment in this repository depends on.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		sys := nmp.MustNewSystem(nmp.DefaultConfig(8, 4, nmp.MechDIMMLink))
		bfs := workloads.NewBFSFromGraph(workloads.Community(12, 8, 42))
		res, chk, _ := bfs.Run(sys, sys.DefaultPlacement(), false)
		return uint64(res.Makespan), chk, sys.IC.Counters().Get("link.bytes")
	}
	m1, c1, l1 := run()
	m2, c2, l2 := run()
	if m1 != m2 || c1 != c2 || l1 != l2 {
		t.Fatalf("non-deterministic run: makespan %d/%d checksum %x/%x link %d/%d",
			m1, m2, c1, c2, l1, l2)
	}
}

// TestParallelSerialEquivalence renders a slice of the experiment registry
// with the job engine pinned serial and fanned across four workers, and
// requires byte-identical output — the user-facing guarantee that
// `dlbench -jobs N` never changes a table, only how fast it appears.
// (internal/exp's determinism test covers a broader slice; this one checks
// the same contract through the public registry the CLI uses.)
func TestParallelSerialEquivalence(t *testing.T) {
	ids := []string{"table1", "abl-payload"}
	if !testing.Short() {
		ids = append(ids, "abl-credits")
	}
	render := func(jobs int) []byte {
		var buf bytes.Buffer
		for _, id := range ids {
			e, ok := exp.ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			opts := exp.Options{Quick: true, Seed: 42}
			opts.Jobs = jobs
			for _, tb := range e.Run(opts) {
				tb.Render(&buf)
			}
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("-jobs 1 and -jobs 4 rendered different tables:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestFunctionalEqualityAcrossAllSystems runs every deterministic-output
// workload on every mechanism and requires identical functional results:
// the interconnect must never change what is computed, only when.
func TestFunctionalEqualityAcrossAllSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product sweep skipped in -short mode")
	}
	graph := workloads.Community(11, 8, 5)
	builders := map[string]func() workloads.Workload{
		"bfs":   func() workloads.Workload { return workloads.NewBFSFromGraph(graph) },
		"sssp":  func() workloads.Workload { return workloads.NewSSSPFromGraph(graph) },
		"nw":    func() workloads.Workload { return workloads.NewNW(96, 16, 3) },
		"histo": func() workloads.Workload { return workloads.NewHistogram(1<<12, 32, 3) },
		"tspow": func() workloads.Workload { return workloads.NewTSPow(1<<12, 16, 128, 3) },
	}
	mechs := []nmp.Mechanism{
		nmp.MechDIMMLink, nmp.MechMCN, nmp.MechAIM, nmp.MechABCDIMM,
	}
	for name, mk := range builders {
		var want uint64
		for i, mech := range mechs {
			sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, mech))
			_, chk, _ := mk().Run(sys, sys.DefaultPlacement(), false)
			if i == 0 {
				want = chk
			} else if chk != want {
				t.Errorf("%s: %s computed a different result", name, mech)
			}
		}
	}
}

// TestAllWorkloadsRunOnAllTopologies is a smoke matrix: every Table IV
// workload completes on every DL topology without deadlock and produces a
// nonzero makespan.
func TestAllWorkloadsRunOnAllTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix skipped in -short mode")
	}
	graph := workloads.Community(10, 8, 9)
	suite := []workloads.Workload{
		workloads.NewBFSFromGraph(graph),
		workloads.NewHotspot(32, 32, 2),
		workloads.NewKMeans(512, 4, 4, 2, 9),
		workloads.NewNW(64, 16, 9),
		workloads.NewPageRankFromGraph(graph, 2),
		workloads.NewSSSPFromGraph(graph),
	}
	for _, topo := range []core.TopologyKind{core.TopoChain, core.TopoRing, core.TopoMesh, core.TopoTorus} {
		for _, w := range suite {
			cfg := nmp.DefaultConfig(8, 4, nmp.MechDIMMLink)
			cfg.DL.Topology = topo
			sys := nmp.MustNewSystem(cfg)
			res, _, _ := w.Run(sys, sys.DefaultPlacement(), false)
			if res.Makespan == 0 {
				t.Errorf("%s on %s: zero makespan", w.Name(), topo)
			}
		}
	}
}

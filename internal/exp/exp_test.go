package exp

import (
	"testing"
)

func TestRegistryHasEveryPaperArtifact(t *testing.T) {
	want := []string{"fig01", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "table1", "table2", "table4", "table5",
		"abl-mapping", "abl-credits", "abl-payload", "abl-greedy", "abl-page",
		"ext-disagg", "ext-nearbank", "ext-prim"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("only %d experiments registered", len(All()))
	}
}

// TestFig10QuickShape checks the orderings the paper's headline depends on,
// at one mid-size configuration: DIMM-Link beats MCN on every workload,
// stays at least competitive with AIM, and the NMP systems stay within the
// expected band of the CPU baseline. (Absolute factors are compressed at
// laptop scale; see EXPERIMENTS.md.) It checks the rows of the serial grid
// that TestDeterministicAggregation/Fig10Grid also digests.
func TestFig10QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	rows, _ := serialFig10Grid()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 workloads", len(rows))
	}
	for _, r := range rows {
		if r.speedups["dl-base"] < r.speedups["mcn"]*0.99 {
			t.Errorf("%s: dl-base %.2f below mcn %.2f", r.workload, r.speedups["dl-base"], r.speedups["mcn"])
		}
		if r.speedups["dl-base"] < r.speedups["aim"]*0.85 {
			t.Errorf("%s: dl-base %.2f far below aim %.2f", r.workload, r.speedups["dl-base"], r.speedups["aim"])
		}
		if r.speedups["dl-base"] < 0.6 {
			t.Errorf("%s: dl-base %.2f implausibly slow vs CPU", r.workload, r.speedups["dl-base"])
		}
		for m, v := range r.idcRatio {
			if v < 0 || v > 1 {
				t.Errorf("%s/%s: idc ratio %v out of range", r.workload, m, v)
			}
		}
		// DIMM-Link must cut the non-overlapped IDC ratio vs MCN on the
		// IDC-heavy workloads (the Figure 10 line series).
		if r.idcRatio["mcn"] > 0.3 && r.idcRatio["dl-opt"] > r.idcRatio["mcn"]+0.05 {
			t.Errorf("%s: dl-opt idc ratio %.2f above mcn %.2f", r.workload, r.idcRatio["dl-opt"], r.idcRatio["mcn"])
		}
	}
}

// TestLightExperimentsProduceTables smoke-runs the cheap experiments end to
// end and checks that each produces non-empty tables with consistent row
// widths (the heavyweight sweeps are covered by the root benchmarks and the
// shape test above).
func TestLightExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short mode")
	}
	o := Options{Quick: true, Seed: 42}
	for _, id := range []string{"fig01", "table1", "table2", "table4", "table5", "abl-payload", "abl-greedy"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		tables := e.Run(o)
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", id)
			continue
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has no rows", id, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Errorf("%s: row width %d != header width %d in %q", id, len(row), len(tb.Header), tb.Title)
				}
			}
			if tb.String() == "" {
				t.Errorf("%s: empty rendering", id)
			}
		}
	}
}

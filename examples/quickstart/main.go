// Quickstart: build a 4-DIMM DIMM-Link NMP system, run BFS on it and on
// the 16-core host-CPU baseline, and print the speedup.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/nmp"
	"repro/internal/workloads"
)

func main() {
	// One input graph, reused by both systems so results are comparable.
	graph := workloads.Community(17, 8, 42)
	bfs := workloads.NewBFSFromGraph(graph)
	fmt.Printf("input: %d vertices, %d directed edges\n", graph.N, graph.NumEdges())

	run := func(mech nmp.Mechanism) (ms float64, checksum uint64) {
		cfg := nmp.DefaultConfig(4, 2, mech)
		// This example's input is ~100x smaller than a production working
		// set, so scale the host LLC proportionally to stay in the
		// memory-bound regime the architecture targets (see EXPERIMENTS.md,
		// "Calibration").
		cfg.HostLLCBytes = 256 << 10
		sys := nmp.MustNewSystem(cfg)
		res, chk, err := bfs.Run(sys, sys.DefaultPlacement(), false)
		if err != nil {
			panic(err)
		}
		return float64(res.Makespan) / 1e9, chk
	}

	cpuMs, cpuChk := run(nmp.MechHostCPU)
	dlMs, dlChk := run(nmp.MechDIMMLink)

	fmt.Printf("16-core CPU baseline: %.3f ms\n", cpuMs)
	fmt.Printf("DIMM-Link NMP (4D-2C): %.3f ms\n", dlMs)
	fmt.Printf("speedup: %.2fx\n", cpuMs/dlMs)
	if cpuChk != dlChk {
		panic("functional results diverged between systems")
	}
	fmt.Println("functional results identical on both systems ✓")
}

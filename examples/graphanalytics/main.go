// Graph analytics across interconnects: run PageRank and BFS on a modular
// (LiveJournal-like) graph over every IDC mechanism and compare — the
// motivating scenario of the paper's introduction ("for graph processing, a
// DIMM usually needs to access the neighbor vertices stored in other
// DIMMs").
//
//	go run ./examples/graphanalytics
package main

import (
	"fmt"
	"os"

	"repro/internal/nmp"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	const (
		dimms    = 8
		channels = 4
		scale    = 17
		ef       = 8
		prIters  = 3
	)
	graph := workloads.Community(scale, ef, 7)
	fmt.Printf("graph: %d vertices, %d directed edges (%dD-%dC systems)\n\n",
		graph.N, graph.NumEdges(), dimms, channels)

	mechs := []nmp.Mechanism{
		nmp.MechHostCPU, nmp.MechMCN, nmp.MechAIM, nmp.MechABCDIMM, nmp.MechDIMMLink,
	}
	table := stats.NewTable("PageRank & BFS makespans", "mechanism",
		"pagerank-ms", "bfs-ms", "pr-speedup-vs-cpu", "bfs-speedup-vs-cpu", "idc-stall-%")

	var cpuPR, cpuBFS float64
	for _, mech := range mechs {
		// Scaled-down inputs get a proportionally scaled host LLC so the
		// comparison stays memory-bound (see EXPERIMENTS.md, "Calibration").
		cfg := nmp.DefaultConfig(dimms, channels, mech)
		cfg.HostLLCBytes = 256 << 10

		pr := workloads.NewPageRankFromGraph(graph, prIters)
		sysPR := nmp.MustNewSystem(cfg)
		resPR, _, err := pr.Run(sysPR, sysPR.DefaultPlacement(), false)
		if err != nil {
			panic(err)
		}

		bfs := workloads.NewBFSFromGraph(graph)
		sysBFS := nmp.MustNewSystem(cfg)
		resBFS, _, err := bfs.Run(sysBFS, sysBFS.DefaultPlacement(), false)
		if err != nil {
			panic(err)
		}

		prMs := float64(resPR.Makespan) / 1e9
		bfsMs := float64(resBFS.Makespan) / 1e9
		if mech == nmp.MechHostCPU {
			cpuPR, cpuBFS = prMs, bfsMs
		}
		table.Addf(string(mech), prMs, bfsMs, cpuPR/prMs, cpuBFS/bfsMs,
			100*resPR.IDCStallRatio())
	}
	table.Render(os.Stdout)
	fmt.Println("\n(DIMM-Link routes most inter-DIMM traffic over SerDes links;")
	fmt.Println(" MCN pays the host CPU for every remote byte.)")
}

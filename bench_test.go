// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (quick-mode inputs; see EXPERIMENTS.md for recorded
// results and cmd/dlbench for the CLI equivalent, including -full for
// paper-scale inputs).
//
//	go test -bench=. -benchmem .
//
// One benchmark iteration runs the complete experiment, so time/op is the
// wall-clock cost of regenerating that artifact.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/internal/nmp"
	"repro/internal/workloads"
)

func runExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := exp.Options{Quick: true, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opts)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// The serial/parallel pair times one full quick-mode regeneration of every
// registered experiment — the dlbench `-exp all` path — with the job engine
// pinned to one worker versus fanned across every core:
//
//	go test -bench='AllExperiments' -benchtime=1x .
//
// The ratio of the two times is the end-to-end speedup of `-jobs N` on this
// machine; the rendered output is byte-identical either way (see
// internal/exp's TestDeterministicAggregation).
func benchmarkAllExperiments(b *testing.B, jobs int) {
	opts := exp.Options{Quick: true, Seed: 42}
	opts.Jobs = jobs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range exp.All() {
			if len(e.Run(opts)) == 0 {
				b.Fatalf("%s produced no tables", e.ID)
			}
		}
	}
}

func BenchmarkAllExperimentsSerial(b *testing.B) { benchmarkAllExperiments(b, 1) }

func BenchmarkAllExperimentsParallel(b *testing.B) {
	benchmarkAllExperiments(b, runtime.GOMAXPROCS(0))
}

// Figures.

func BenchmarkFig01_IDCBandwidth(b *testing.B) { runExperiment(b, "fig01") }
func BenchmarkFig10_P2P(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11_Breakdown(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12_Broadcast(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkFig13_Energy(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14_Sync(b *testing.B)         { runExperiment(b, "fig14") }
func BenchmarkFig15_Polling(b *testing.B)      { runExperiment(b, "fig15") }
func BenchmarkFig16_Bandwidth(b *testing.B)    { runExperiment(b, "fig16") }
func BenchmarkFig17_Topology(b *testing.B)     { runExperiment(b, "fig17") }

// Tables.

func BenchmarkTable01_MaxBandwidth(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable02_SerDes(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkTable04_Benchmarks(b *testing.B)   { runExperiment(b, "table4") }
func BenchmarkTable05_Config(b *testing.B)       { runExperiment(b, "table5") }

// Ablations beyond the paper.

func BenchmarkAblMapping(b *testing.B) { runExperiment(b, "abl-mapping") }
func BenchmarkAblDLL(b *testing.B)     { runExperiment(b, "abl-dll") }
func BenchmarkAblCredits(b *testing.B) { runExperiment(b, "abl-credits") }
func BenchmarkAblPayload(b *testing.B) { runExperiment(b, "abl-payload") }
func BenchmarkAblGreedy(b *testing.B)  { runExperiment(b, "abl-greedy") }
func BenchmarkAblPage(b *testing.B)    { runExperiment(b, "abl-page") }

// Direct micro-benchmarks with physical metrics, complementing the
// experiment reruns above.

// BenchmarkP2PAdjacentDIMMLink reports the achievable bandwidth between
// adjacent DIMMs over one GRS link (Table I / Figure 1 context).
func BenchmarkP2PAdjacentDIMMLink(b *testing.B) {
	var mbps uint64
	for i := 0; i < b.N; i++ {
		sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
		w := &workloads.P2PBench{SrcDIMM: 0, DstDIMM: 1, TransferBytes: 4096, TotalBytes: 1 << 21}
		_, mbps, _ = w.Run(sys, sys.DefaultPlacement(), false)
	}
	b.ReportMetric(float64(mbps)/1000, "GB/s")
}

// BenchmarkP2PCPUForwarding is the same transfer through the host
// (the paper's Figure 1 measures ~3.14 GB/s on real hardware).
func BenchmarkP2PCPUForwarding(b *testing.B) {
	var mbps uint64
	for i := 0; i < b.N; i++ {
		sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechMCN))
		w := &workloads.P2PBench{SrcDIMM: 0, DstDIMM: 1, TransferBytes: 4096, TotalBytes: 1 << 21}
		_, mbps, _ = w.Run(sys, sys.DefaultPlacement(), false)
	}
	b.ReportMetric(float64(mbps)/1000, "GB/s")
}

// BenchmarkBFSOnDIMMLink measures the simulator's own throughput on a
// mid-size BFS (simulated work per wall second).
func BenchmarkBFSOnDIMMLink(b *testing.B) {
	bfs := workloads.NewBFSFromGraph(workloads.Community(14, 8, 42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := nmp.MustNewSystem(nmp.DefaultConfig(8, 4, nmp.MechDIMMLink))
		res, _, _ := bfs.Run(sys, sys.DefaultPlacement(), false)
		b.ReportMetric(float64(res.Makespan)/1e6, "sim-us")
	}
}

// Extensions (Section VI proposals and PrIM-style kernels).

func BenchmarkExtDisagg(b *testing.B)   { runExperiment(b, "ext-disagg") }
func BenchmarkExtNearBank(b *testing.B) { runExperiment(b, "ext-nearbank") }
func BenchmarkExtPrIM(b *testing.B)     { runExperiment(b, "ext-prim") }

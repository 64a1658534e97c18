// tracegen dumps a workload's memory trace in the ingest formats of
// internal/ingest — the trace-driven mode the paper's FPGA prototype
// uses ("we use pre-dumped traces to drive the system"). The trace can
// be replayed on any system configuration via dlsim -tracein (or
// uploaded to dlserve and run as a trace-kind job); both encodings
// carry the same canonical content hash.
//
// Examples:
//
//	tracegen -workload bfs -scale 12 -out bfs.trace
//	tracegen -workload pr -format binary | dlsim -tracein - -map direct
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cores"
	"repro/internal/ingest"
	"repro/internal/nmp"
	"repro/internal/spec"
	"repro/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "bfs", "workload: bfs | hotspot | kmeans | nw | pr | sssp | spmv | tspow | gemv | histo | train | p2p | sync")
		scale    = flag.Int("scale", 12, "graph scale (2^scale vertices) / problem size class")
		ef       = flag.Int("ef", 8, "edge factor")
		iters    = flag.Int("iters", 2, "iterations (pr, kmeans, hotspot, spmv)")
		seed     = flag.Int64("seed", 42, "generator seed")
		dimms    = flag.Int("dimms", 4, "DIMMs in the recording system")
		channels = flag.Int("channels", 2, "channels in the recording system")
		format   = flag.String("format", "text", "output encoding: text | binary (same canonical hash either way)")
		out      = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	var enc ingest.Format
	switch *format {
	case "text":
		enc = ingest.FormatText
	case "binary":
		enc = ingest.FormatBinary
	default:
		fatal(fmt.Errorf("unknown format %q (text | binary)", *format))
	}

	sp := spec.Spec{
		Kind: spec.KindSim, Workload: *workload, DIMMs: *dimms, Channels: *channels,
		Scale: *scale, EdgeFactor: *ef, Iters: *iters, Seed: *seed,
	}
	cfg, err := sp.Config()
	if err != nil {
		fatal(err)
	}
	sys, err := nmp.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	w, err := sp.BuildWorkload(sys)
	if err != nil {
		fatal(err)
	}
	var rec *trace.Recorder
	sys.InstrumentMemory(func(inner cores.Memory) cores.Memory {
		rec = trace.NewRecorder(inner, sys.Threads(), nmp.NMPClockHz)
		return rec
	})
	if _, _, err := w.Run(sys, sys.DefaultPlacement(), false); err != nil {
		fatal(err)
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := ingest.WriteTrace(dst, &rec.Trace, enc); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d records from %d threads\n",
		len(rec.Trace.Records), rec.Trace.Threads)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

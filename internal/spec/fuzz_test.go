package spec

import (
	"encoding/json"
	"testing"

	"repro/internal/nmp"
)

// FuzzSpec feeds arbitrary JSON through the spec entry point dlserve
// exposes: decode, Normalized, and for small sim-kind specs Config →
// nmp.NewSystem → BuildWorkload, then the run itself for the smallest.
// Decoding, Normalized and NewSystem may return an error; nothing may
// panic. The size gates keep each input cheap; they do not hide
// anything Normalized accepts at those sizes. The DIMM gate is redundant
// with Normalized's bound, and keeps a regression of that bound from
// building a huge system inside the test.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		// Specs that crashed a worker before the sizing fields were bounded.
		`{"kind":"sim","workload":"bfs","scale":-1}`,
		`{"kind":"sim","workload":"bfs","scale":31}`,
		`{"kind":"sim","workload":"bfs","ef":-2}`,
		`{"kind":"sim","workload":"kmeans","scale":3}`,
		`{"kind":"sim","workload":"kmeans","scale":40}`,
		`{"kind":"sim","workload":"bfs","iters":-1}`,
		// System shapes out of range; before dimms was bounded, a huge one
		// made a worker allocate until the process died.
		`{"kind":"sim","workload":"bfs","mech":"mcn","dimms":1048576}`,
		`{"kind":"sim","workload":"bfs","mech":"host-cpu","dimms":1048576,"channels":1}`,
		`{"kind":"sim","workload":"p2p","mech":"aim","dimms":65,"channels":5}`,
		`{"kind":"sim","workload":"p2p","dimms":4,"channels":8}`,
		// Link bandwidths out of range; before linkbw was bounded, a tiny
		// one held a worker for days of wall time.
		`{"kind":"sim","workload":"p2p","scale":8,"linkbw":1}`,
		`{"kind":"sim","workload":"p2p","scale":8,"linkbw":0.001}`,
		`{"kind":"sim","workload":"p2p","scale":8,"linkbw":-1e9}`,
		`{"kind":"sim","workload":"p2p","scale":8,"linkbw":1e300}`,
		`{"kind":"sim","workload":"p2p","scale":8,"dimms":4,"channels":2,"linkbw":1e12}`,
		// Fault plans past their bounds; before they were bounded, a far
		// stall or a near-dead link held a worker for days of wall time.
		`{"kind":"sim","workload":"p2p","scale":8,"fault":"stall=0-1@0+1000000000us"}`,
		`{"kind":"sim","workload":"p2p","scale":8,"fault":"degrade=0-1@0*1e-9"}`,
		`{"kind":"sim","workload":"p2p","scale":8,"fault":"down=0-1@1.5s"}`,
		`{"kind":"sim","workload":"p2p","scale":8,"fault":"stall=0-1@1s+1ms,degrade=1-2@0*0.01"}`,
		// One valid spec per workload.
		`{"kind":"sim","workload":"bfs","scale":8}`,
		`{"kind":"sim","workload":"hotspot","scale":8,"iters":2}`,
		`{"kind":"sim","workload":"kmeans","scale":4}`,
		`{"kind":"sim","workload":"nw","scale":6}`,
		`{"kind":"sim","workload":"pr","scale":8,"broadcast":true}`,
		`{"kind":"sim","workload":"sssp","scale":8,"ef":1}`,
		`{"kind":"sim","workload":"spmv","scale":8,"mech":"aim"}`,
		`{"kind":"sim","workload":"tspow","scale":6}`,
		`{"kind":"sim","workload":"p2p","dimms":4,"channels":2}`,
		`{"kind":"sim","workload":"sync","topology":"ring"}`,
		`{"kind":"sim","workload":"gemv","scale":8,"mech":"abc-dimm"}`,
		`{"kind":"sim","workload":"histo","scale":6,"mech":"host-cpu"}`,
		`{"kind":"sim","workload":"train","scale":8,"coll":"ring"}`,
		`{"kind":"exp","exp":"table1"}`,
		// Proxy polling on mechanisms with no polling proxies: the mcn one
		// panicked inside NewSystem, killing a dlserve worker.
		`{"kind":"sim","workload":"p2p","mech":"mcn","polling":"proxy","scale":8}`,
		`{"kind":"sim","workload":"p2p","mech":"abc-dimm","polling":"proxy+itrpt","scale":8}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		n, err := s.Normalized()
		if err != nil || n.Kind != KindSim || n.Scale > 10 || n.DIMMs > 64 {
			return
		}
		cfg, err := n.Config()
		if err != nil {
			t.Fatalf("Config rejected normalized spec %+v: %v", n, err)
		}
		sys, err := nmp.NewSystem(cfg)
		if err != nil {
			return
		}
		w, err := n.BuildWorkload(sys)
		if err != nil {
			t.Fatalf("BuildWorkload rejected normalized spec %+v: %v", n, err)
		}
		if n.Scale > 8 || n.Iters > 4 || n.DIMMs > 16 {
			return
		}
		if _, _, err := w.Run(sys, sys.DefaultPlacement(), false); err != nil {
			t.Fatalf("run of normalized spec %+v: %v", n, err)
		}
	})
}

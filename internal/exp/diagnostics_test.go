package exp

// Diagnostic regression probes, consolidated from the former ad-hoc
// debug_test.go / debug2_test.go / debug3_test.go scaffolding. They print
// the per-mechanism breakdowns used when calibrating the timing model and
// are skipped unless DLDEBUG=1 is set — but unlike the old scaffolding
// they share one entry point with named subtests, so
//
//	DLDEBUG=1 go test ./internal/exp -run TestDiagnostics/<name> -v
//
// runs exactly one probe.

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/nmp"
	"repro/internal/workloads"
)

func TestDiagnostics(t *testing.T) {
	if os.Getenv("DLDEBUG") == "" {
		t.Skip("diagnostic; set DLDEBUG=1 to run")
	}
	o := Options{Quick: true, Seed: 42}

	// BFSBreakdown prints per-mechanism makespans and stall splits plus the
	// interconnect and host counters for a mid-size BFS.
	t.Run("BFSBreakdown", func(t *testing.T) {
		w := workloads.NewBFSFromGraph(workloads.RMAT(12, 8, 42))
		cfg := sysConfig{"8D-4C", 8, 4}
		for _, mech := range []nmp.Mechanism{nmp.MechHostCPU, nmp.MechMCN, nmp.MechAIM, nmp.MechDIMMLink} {
			out := execute(o, w, mech, cfg, nil, nil, false)
			var idc, local uint64
			for _, st := range out.res.ThreadStats {
				idc += uint64(st.IDCStall)
				local += uint64(st.LocalStall)
			}
			n := uint64(len(out.res.ThreadStats))
			fmt.Printf("%-10s makespan=%8.2fus idcStall/thr=%8.2fus localStall/thr=%8.2fus\n",
				mech, float64(out.res.Makespan)/1e6, float64(idc/n)/1e6, float64(local/n)/1e6)
			if out.sys.IC != nil {
				c := out.sys.IC.Counters()
				fmt.Printf("           ic: %v\n", map[string]uint64{
					"reads": c.Get("remote.reads"), "writes": c.Get("remote.writes"),
					"barriers": c.Get("barriers"), "sync": c.Get("sync.messages"),
					"intergroup": c.Get("intergroup.accesses"), "packets": c.Get("packets"),
					"linkbytes": c.Get("link.bytes")})
			}
			if out.sys.Host() != nil {
				hc := out.sys.Host().Counters
				fmt.Printf("           host: fw=%d fwBytes=%d polls=%d busBytes=%d\n",
					hc.Get("host.forwards"), hc.Get("fwd.bytes"), hc.Get("host.polls"), hc.Get("hostbus.bytes"))
			}
		}
	})

	// Fig10Rows prints the raw speedup/stall grid of the Figure 10
	// measurement at one configuration, with absolute per-mechanism times.
	t.Run("Fig10Rows", func(t *testing.T) {
		abs := map[string]map[string]float64{}
		rows := fig10Measure(o, []sysConfig{{"8D-4C", 8, 4}}, func(cfg sysConfig, wl, mech string, out runOut) {
			if abs[wl] == nil {
				abs[wl] = map[string]float64{}
			}
			abs[wl][mech] = float64(out.res.Makespan) / 1e6 // us
		})
		for _, r := range rows {
			fmt.Printf("%-6s mcn=%6.2f aim=%6.2f dl-base=%6.2f dl-opt=%6.2f | idc%% mcn=%4.0f aim=%4.0f dlb=%4.0f dlo=%4.0f | us cpu=%8.1f mcn=%8.1f aim=%8.1f dlb=%8.1f\n",
				r.workload, r.speedups["mcn"], r.speedups["aim"], r.speedups["dl-base"], r.speedups["dl-opt"],
				100*r.idcRatio["mcn"], 100*r.idcRatio["aim"], 100*r.idcRatio["dl-base"], 100*r.idcRatio["dl-opt"],
				abs[r.workload]["host-cpu"], abs[r.workload]["mcn"], abs[r.workload]["aim"], abs[r.workload]["dl-base"])
		}
	})
}

// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (see DESIGN.md §4 for the index). Each runner
// builds fresh systems, executes the workloads, and renders the same rows
// or series the paper reports. Runners decompose their grids into
// independent jobs executed by the worker pool in engine.go; cmd/dlbench
// and the repository-level benchmarks are thin wrappers around this
// package.
package exp

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/nmp"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Options tunes experiment scale and execution. Quick (the default) runs
// laptop-sized inputs suitable for tests and benchmarks; Full approaches
// the paper's input sizes.
type Options struct {
	Quick bool
	Seed  int64

	// Jobs is the worker-pool width for the experiment grid: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces serial execution. Rendered tables
	// are bit-identical for every value (see engine.go).
	Jobs int

	// Ctx, when non-nil, makes the experiment grid cancellable: once the
	// context is canceled no further simulation jobs are dispatched and
	// the run aborts. Cancellable runs must go through RunContext, which
	// converts the abort into the context's error; Experiment.Run panics
	// on cancellation when called directly. A nil (or never-canceled)
	// Ctx leaves execution and output exactly as before.
	Ctx context.Context

	// Progress, when non-nil, is invoked after each simulation job
	// completes with the number of finished jobs and the batch total.
	// Invocations are serialized by the engine.
	Progress func(done, total int)

	// Fault, when active, attaches the link-fault plan to every
	// DIMM-Link system the experiments build (other mechanisms have no
	// DL links and ignore it). The plan is read-only once constructed,
	// so concurrent jobs may share the pointer; each system derives its
	// own injector state from it. An inactive plan (nil, or no BER and
	// no events) leaves every run byte-identical to a fault-free build.
	Fault *fault.Plan

	// SamplePeriod, when non-zero, arms each instrumented system's
	// utilization sampler (nmp.System.StartSampler) with this period.
	// It only takes effect on runs whose config carries a metrics
	// collector; bare runs are unaffected.
	SamplePeriod sim.Time
}

// scaleFor returns workload sizing.
type sizing struct {
	graphScale int // graph scale (2^scale vertices)
	edgeFactor int
	prIters    int
	hsRows     int
	hsIters    int
	kmPoints   int
	kmDims     int
	kmK        int
	kmIters    int
	nwLen      int
	nwBlock    int
	tsLen      int
	tsChunk    int
}

func (o Options) sizes() sizing {
	if o.Quick {
		return sizing{
			graphScale: 17, edgeFactor: 8, prIters: 3,
			hsRows: 1024, hsIters: 4,
			kmPoints: 1 << 15, kmDims: 16, kmK: 16, kmIters: 3,
			nwLen: 1024, nwBlock: 64,
			tsLen: 1 << 18, tsChunk: 4096,
		}
	}
	return sizing{
		graphScale: 19, edgeFactor: 8, prIters: 5,
		hsRows: 2048, hsIters: 6,
		kmPoints: 1 << 17, kmDims: 16, kmK: 16, kmIters: 4,
		nwLen: 4096, nwBlock: 128,
		tsLen: 1 << 20, tsChunk: 8192,
	}
}

// tune applies the scale-dependent calibration: it shrinks the host LLC
// from Table V's 8 MiB in proportion to the scaled-down working sets (the
// paper's inputs are 30-100x larger than quick mode's; a full-size LLC
// would let the CPU baseline run entirely out of cache, erasing the
// memory-bound regime the paper evaluates). Quick mode uses 256 KiB, full
// mode 2 MiB with inputs that exceed it.
func (o Options) tune(c *nmp.Config) {
	if o.Quick {
		c.HostLLCBytes = 256 << 10
	} else {
		c.HostLLCBytes = 2 << 20
	}
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) []*stats.Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunContext executes e.Run under o's context and returns the rendered
// tables, or the context's error if the grid was canceled mid-run, or
// the error of the lowest-index job whose system could not be built. It
// is the cancellable entry point used by long-running callers (dlserve);
// with a nil or never-canceled Options.Ctx it behaves exactly like
// e.Run(o) and the returned tables are byte-identical to a direct call.
func RunContext(e Experiment, o Options) (tables []*stats.Table, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case canceled:
			tables, err = nil, r.err
		case buildFailed:
			tables, err = nil, r.err
		default:
			panic(r)
		}
	}()
	return e.Run(o), nil
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sysConfig names one of the Figure 10 system configurations, e.g. 16D-8C.
type sysConfig struct {
	name     string
	dimms    int
	channels int
}

func p2pConfigs() []sysConfig {
	return []sysConfig{
		{"4D-2C", 4, 2},
		{"8D-4C", 8, 4},
		{"12D-6C", 12, 6},
		{"16D-8C", 16, 8},
	}
}

// runOut bundles one system run.
type runOut struct {
	sys      *nmp.System
	res      nmp.KernelResult
	checksum uint64
}

// execute builds a fresh system, applies tweak (may be nil), runs the
// workload with the given placement (nil selects the default), and returns
// everything the reporters need. It is safe to call from concurrent jobs:
// every run owns its entire object graph and o is passed by value.
func execute(o Options, w workloads.Workload, mech nmp.Mechanism, cfg sysConfig,
	tweak func(*nmp.Config), place []int, profile bool) runOut {

	c := nmp.DefaultConfig(cfg.dimms, cfg.channels, mech)
	o.tune(&c)
	if o.Fault.Active() {
		c.DL.Fault = o.Fault
	}
	if tweak != nil {
		tweak(&c)
	}
	sys, err := nmp.NewSystem(c)
	if err != nil {
		// Experiments build only valid shapes, so this is a user input
		// the shape rejects — an Options.Fault event on a DIMM pair with
		// no DL link. RunContext returns it as the run's error.
		panic(buildFailed{err})
	}
	if c.Metrics != nil && o.SamplePeriod > 0 {
		sys.StartSampler(o.SamplePeriod)
	}
	if place == nil {
		// Default: the NMP programming model co-locates each kernel thread
		// with its data partition (as UPMEM-style offloading does). The
		// task-mapping ablation (see runDLOpt and the abl-mapping
		// experiment) starts from data-oblivious placements instead.
		place = sys.DefaultPlacement()
	}
	res, chk, err := w.Run(sys, place, profile)
	if err != nil {
		// Experiment placements are generated internally, so a rejected
		// one is a bug in the experiment, not a user error.
		panic(fmt.Sprintf("exp: %s rejected placement: %v", w.Name(), err))
	}
	return runOut{sys: sys, res: res, checksum: chk}
}

// runDLOpt performs the full DIMM-Link-opt flow of Section IV-B: a profiled
// DL-base run provides the traffic matrix M, Algorithm 1 computes the
// optimized placement, and a fresh system re-runs with it. The returned
// total charges the profiling phase at 1% of the unoptimized runtime (the
// paper profiles the first 1% of memory accesses; its measured end-to-end
// overhead is 2-9%), plus the optimized kernel. The two runs inside are
// inherently sequential, so the pair always forms a single job.
func runDLOpt(o Options, w workloads.Workload, cfg sysConfig, tweak func(*nmp.Config)) (total sim.Time, opt, base runOut) {
	base = execute(o, w, nmp.MechDIMMLink, cfg, tweak, nil, true)
	perDIMM := base.sys.Cfg.CoresPerDIMM
	place, err := placement.Optimize(base.res.Profile, base.sys.Link.Distance, perDIMM)
	if err != nil {
		panic(fmt.Sprintf("exp: placement failed: %v", err))
	}
	opt = execute(o, w, nmp.MechDIMMLink, cfg, tweak, place, false)
	profileCost := base.res.Makespan / 100
	return opt.res.Makespan + profileCost, opt, base
}

// p2pBuilders returns lazy constructors for the six Table IV workloads at
// the given sizing, in suite order. Graph workloads use the Community
// generator (the LiveJournal substitution: modular structure, near-uniform
// degrees). Each parallel job invokes a builder to get its own private
// workload instance; seeds are a pure function of the experiment seed and
// the suite position, so concurrent jobs never share generator state.
func p2pBuilders(s sizing, seed int64) []func() workloads.Workload {
	return []func() workloads.Workload{
		func() workloads.Workload {
			return workloads.NewBFSFromGraph(workloads.Community(s.graphScale, s.edgeFactor, seed))
		},
		func() workloads.Workload { return workloads.NewHotspot(s.hsRows, s.hsRows, s.hsIters) },
		func() workloads.Workload {
			return workloads.NewKMeans(s.kmPoints, s.kmDims, s.kmK, s.kmIters, seed)
		},
		func() workloads.Workload { return workloads.NewNW(s.nwLen, s.nwBlock, seed) },
		func() workloads.Workload {
			return workloads.NewPageRankFromGraph(workloads.Community(s.graphScale, s.edgeFactor, seed+1), s.prIters)
		},
		func() workloads.Workload {
			return workloads.NewSSSPFromGraph(workloads.Community(s.graphScale, s.edgeFactor, seed+2))
		},
	}
}

// speedup returns base/t as a float factor.
func speedup(baseline, t sim.Time) float64 {
	if t == 0 {
		return 0
	}
	return float64(baseline) / float64(t)
}

// geoMeanCell renders a geometric mean as a table cell, degrading to
// "n/a" when the inputs contain a non-positive value (a pathological
// speedup ratio) instead of aborting the whole experiment run.
func geoMeanCell(vs []float64) any {
	gm, err := stats.GeoMean(vs)
	if err != nil {
		return "n/a"
	}
	return gm
}

package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var m struct{ Name, Unit string }
	err := json.Unmarshal(b, &m)
	d.name, d.unit = m.Name, m.Unit
	return err
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if !slices.Equal(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", f.EndToEnd, endToEnd)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", f.PerLayer, perLayer)
	}
}

// exactMetrics must repeat bit for bit between two traced runs of a seed.
var exactMetrics = []string{
	"sim.events", "sim.events_per_op", "cores.remote_op_ratio", "cache.l1_hit_ratio",
	"cache.l2_hit_ratio", "dram.row_miss_ratio", "idc.packets", "idc.link_bytes",
	"idc.intergroup_accesses", "nmp.access_local.calls", "nmp.access_remote.calls",
	"nmp.scatter.calls", "nmp.broadcast.calls", "nmp.barrier.calls", "nmp.collective.calls",
}

// mustRun runs a workload and fails the test unless every checked
// operation passed and the result line renders.
func mustRun(t *testing.T, o options) *report {
	t.Helper()
	r, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed", o.workload, o.seed, r.failed, r.attempted)
	}
	if v, _ := r.get("error_rate"); v.v != 0 || v.unit != "ratio" {
		t.Fatalf("error_rate %v", v)
	}
	if _, err := r.jsonLine(o.trace); err != nil {
		t.Fatal(err)
	}
	return r
}

// assertPrinted checks that every metric is printed as
// "workload metric value unit".
func assertPrinted(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	var out bytes.Buffer
	r.print(&out)
	for _, d := range defs {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(r.workload+" "+d.name) + ` -?[0-9][^ ]* ` + regexp.QuoteMeta(d.unit) + `$`)
		if !line.Match(out.Bytes()) {
			t.Errorf("%s: no line for %s in %s", r.workload, d.name, d.unit)
		}
	}
}

// TestQuickSmoke runs every workload at tiny size: untraced and traced on
// seed 42 (committed goldens), traced again to check the exact counts, and
// untraced on the held-out seed 7.
func TestQuickSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	work := t.TempDir()
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 42, seconds: 0.4, quick: true, work: work}
			untraced := mustRun(t, o)
			assertPrinted(t, untraced, f.EndToEnd)
			o.trace = true
			traced := mustRun(t, o)
			assertPrinted(t, traced, f.PerLayer)
			if !maps.Equal(untraced.digests, traced.digests) {
				t.Errorf("traced digests %v differ from untraced %v", traced.digests, untraced.digests)
			}
			again := mustRun(t, o)
			for _, name := range exactMetrics {
				a, _ := traced.get(name)
				b, _ := again.get(name)
				if a != b {
					t.Errorf("%s not exact: %v then %v", name, a, b)
				}
			}
			mustRun(t, options{workload: w, seed: 7, seconds: 0.2, quick: true, work: work})
		})
	}
}

// TestDecomposedPathsMatchPublicEntryPoints pins the benchmark's timed
// phase-by-phase path, plain and instrumented, to the bytes spec.RunSim
// and spec.ReplayTrace render.
func TestDecomposedPathsMatchPublicEntryPoints(t *testing.T) {
	for _, w := range []string{"table4", "trace-idc"} {
		jobs, err := simJobs(w, 42, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := publicDigest(jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, spans := range []*spanSet{nil, new(spanSet)} {
			jr, err := runJob(jobs[0], spans)
			if err != nil {
				t.Fatal(err)
			}
			if jr.digest != want {
				t.Errorf("%s %s (instrumented %t): decomposed report %s, public entry point %s",
					w, jobs[0].label, spans != nil, jr.digest, want)
			}
		}
	}
}

// TestServeMixLatencyNotPollQuantized: the clients long-poll results, so
// round trips are not rounded up to client.Wait's 50 ms status-poll
// interval. A miss at quick size computes in a few milliseconds; polled,
// it would take at least one interval.
func TestServeMixLatencyNotPollQuantized(t *testing.T) {
	r := mustRun(t, options{workload: "serve-mix", seed: 42, seconds: 0.5, quick: true, work: t.TempDir()})
	for name, limit := range map[string]float64{"serve.hit_p50_ms": 25, "serve.miss_p50_ms": 50} {
		if v, ok := r.get(name); !ok || !(v.v > 0 && v.v < limit) {
			t.Errorf("%s = %v, want in (0, %g) ms", name, v.v, limit)
		}
	}
}

const cannedTop = `File: bench
Type: cpu
Duration: 2s, Total samples = 1s (50.00%)
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.30s 30.00% 30.00%      0.30s 30.00%  runtime.chanrecv
     0.20s 20.00% 50.00%      0.25s 25.00%  runtime.mallocgc
     0.20s 20.00% 70.00%      0.20s 20.00%  repro/internal/cache.(*Cache).Access
     0.10s 10.00% 80.00%      0.10s 10.00%  runtime.scanblock
      50ms  5.00% 85.00%       50ms  5.00%  repro/internal/serve/store.(*Store).Put
      50ms  5.00% 90.00%       50ms  5.00%  repro/internal/workloads.(*SSSP).Run.func1
      40ms  4.00% 94.00%       40ms  4.00%  sort.partition_func
      30ms  3.00% 97.00%       30ms  3.00%  repro/internal/exp.Run
      20ms  2.00% 99.00%       20ms  2.00%  runtime.memhash32 (inline)
      10ms  1.00%   100%       10ms  1.00%  main.(*spanMemory).Access
         0     0%   100%      0.90s 90.00%  main.main
`

func TestFoldTop(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.chanrecv":                        "runtime_sched",
		"runtime.futex":                           "runtime_sched",
		"runtime.mallocgc":                        "runtime_gc",
		"runtime.scanblock":                       "runtime_gc",
		"repro/internal/cache.(*Cache).Access":    "cache",
		"repro/internal/serve/store.(*Store).Put": "serve",
		"repro/internal/exp.Run":                  "other",
		"runtime.memmove":                         "other",
		"sort.partition_func":                     "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", fn, got, want)
		}
	}
	shares, err := foldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime_sched": 0.30, "runtime_gc": 0.30, "cache": 0.20,
		"serve": 0.05, "workloads": 0.05, "other": 0.10}
	var sum float64
	for _, l := range shareLayers {
		sum += shares[l]
		if d := shares[l] - want[l]; d > 1e-9 || d < -1e-9 {
			t.Errorf("host_share.%s = %g, want %g", l, shares[l], want[l])
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("shares sum to %g, want 1 ± 0.01", sum)
	}
	if _, err := foldTop("File: bench\n"); err == nil {
		t.Error("foldTop accepted output without a sample table")
	}
}

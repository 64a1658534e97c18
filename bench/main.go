// Command bench is the repository benchmark. It drives the simulator through
// its public packages on four end-to-end workloads and prints every number
// as "workload metric value unit", then one JSON result line.
//
// Run it from the repository root:
//
//	bash bench/run.sh                                   # every workload, one child process each
//	bash bench/run.sh --workload table4 --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh --trace 1                         # traced run: per-layer metrics
//	bash bench/run.sh -update-golden                    # rewrite golden/reports.json
//
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// workloadNames lists the benchmark's workloads in run order.
var workloadNames = []string{"table4", "train", "trace-idc", "serve-mix"}

// metricDef is one metric BENCHMARK.json names.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports in its JSON line.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
}

// perLayer is what a traced run reports in its JSON line. Every workload
// reports each of them; a layer the workload never enters reads 0.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, l := range shareLayers {
		d = append(d, metricDef{"host_share." + l, "share"})
	}
	for k, name := range spanNames {
		d = append(d, metricDef{"nmp." + name + ".calls", "count"})
		if k == spanLocal {
			d = append(d, metricDef{"nmp." + name + ".ns_per_call", "ns"})
		}
		d = append(d, metricDef{"nmp." + name + ".share", "share"})
	}
	return append(d,
		metricDef{"kernel.other.share", "share"},
		metricDef{"setup.system_s", "s"},
		metricDef{"render_s", "s"},
		metricDef{"ingest.records_per_s", "1/s"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_op", "ratio"},
		metricDef{"cores.remote_op_ratio", "ratio"},
		metricDef{"cache.l1_hit_ratio", "ratio"},
		metricDef{"cache.l2_hit_ratio", "ratio"},
		metricDef{"dram.row_miss_ratio", "ratio"},
		metricDef{"idc.packets", "count"},
		metricDef{"idc.link_bytes", "bytes"},
		metricDef{"idc.intergroup_accesses", "count"},
		metricDef{"alloc.bytes_per_op", "bytes"},
		metricDef{"trace_overhead_pct", "%"},
	)
}()

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	work     string // directory for temporary files, inside the checkout
}

func main() {
	var (
		o            options
		traceFlag    int
		updateGolden bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process: "+strings.Join(workloadNames, ", ")+" (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 42, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of timed work per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "tiny inputs, for the smoke test")
	flag.BoolVar(&updateGolden, "update-golden", false, "rewrite golden/reports.json for seeds 42 and 7, then exit")
	flag.Parse()
	o.trace = traceFlag == 1
	o.work = filepath.Join(".bench_build", "run")
	switch {
	case flag.NArg() > 0:
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case traceFlag != 0 && traceFlag != 1:
		fatal(fmt.Errorf("-trace %d: want 0 or 1", traceFlag))
	case !(o.seconds > 0):
		fatal(fmt.Errorf("-seconds %g: want > 0", o.seconds))
	case o.workload != "" && !slices.Contains(workloadNames, o.workload):
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", ")))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	if updateGolden {
		if err := writeGoldens(); err != nil {
			fatal(err)
		}
		return
	}
	if o.workload == "" {
		if err := runAll(o); err != nil {
			fatal(err)
		}
		return
	}
	r, err := runWorkload(o)
	if err != nil {
		fatal(err)
	}
	line, err := r.jsonLine(o.trace)
	if err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*report, error) {
	if o.workload == "serve-mix" {
		return runServeMix(o)
	}
	return runSimWorkload(o)
}

// report is one workload run: every measured value in print order and the
// tally of checked operations.
type report struct {
	workload  string
	attempted int
	failed    int
	values    []value
	// digests maps each simulation job to the sha256 of its rendered
	// report; a traced run must reproduce the untraced digests.
	digests map[string]string
}

type value struct {
	name string
	v    float64
	unit string
}

func newReport(workload string) *report {
	return &report{workload: workload, digests: map[string]string{}}
}

func (r *report) add(name string, v float64, unit string) {
	r.values = append(r.values, value{name, v, unit})
}

func (r *report) get(name string) (value, bool) {
	for _, v := range r.values {
		if v.name == name {
			return v, true
		}
	}
	return value{}, false
}

// tally counts one checked operation; problems lists the checks it broke.
func (r *report) tally(what string, problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s %s: %s\n", r.workload, what, strings.Join(problems, "; "))
	}
}

// finish adds the values every workload reports.
func (r *report) finish() {
	r.add("gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("attempted", float64(r.attempted), "count")
	r.add("error_rate", float64(r.failed)/math.Max(1, float64(r.attempted)), "ratio")
}

func (r *report) print(w io.Writer) {
	for _, v := range r.values {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, v.name, strconv.FormatFloat(v.v, 'g', -1, 64), v.unit)
	}
}

// jsonMetric and jsonResult are the schema of the final output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonLine renders the result line: the per-layer metrics of a traced run,
// the end-to-end metrics otherwise.
func (r *report) jsonLine(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.get(d.name)
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", r.workload, d.name)
		}
		if v.unit != d.unit {
			return nil, fmt.Errorf("%s %s measured in %s, want %s", r.workload, d.name, v.unit, d.unit)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("%s %s = %g", r.workload, d.name, v.v)
		}
		out.Metrics[d.name] = jsonMetric{v.v, v.unit}
	}
	return json.Marshal(out)
}

// runAll runs every workload in its own child process, so that peak RSS is
// per workload, and prints their lines followed by one combined JSON line
// whose metric names are prefixed with the workload.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	for _, w := range workloadNames {
		args := []string{"--workload", w, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", traceArg}
		if o.quick {
			args = append(args, "--quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		body, last := splitLastLine(out)
		os.Stdout.Write(body)
		var res jsonResult
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("%s: result line: %w", w, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w+"/"+name] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// splitLastLine separates a child's output from its final line.
func splitLastLine(out []byte) (body, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	if i < 0 {
		return nil, out
	}
	return out[:i+1], out[i+1:]
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // jsonLine rejects it
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" { // ru_maxrss is bytes there, KiB on Linux
		kb /= 1024
	}
	return kb / 1024
}

// median and quantile summarise repeated measurements; quantile
// interpolates linearly between the nearest ranks.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

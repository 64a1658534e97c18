// sim.go holds the three simulation workloads: the Table IV suite, the
// data-parallel training workload under four mechanisms, and a seeded
// external trace replayed with its pages spread across the DIMMs.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/ingest"
	"repro/internal/nmp"
	"repro/internal/spec"
	"repro/internal/trace"
)

// simWorkloads are the workloads runSimWorkload runs; table4Kernels is
// the paper's Table IV suite; trainMechs the IDC mechanisms the
// collective-bound training workload runs on.
var (
	simWorkloads  = []string{"table4", "train", "trace-idc"}
	table4Kernels = []string{"bfs", "hotspot", "kmeans", "nw", "pr", "sssp", "tspow"}
	trainMechs    = []string{"dimm-link", "mcn", "aim", "abc-dimm"}
)

// simJob is one spec run of a simulation workload.
type simJob struct {
	label string
	spec  spec.Spec // normalized
	hash  string    // the spec's content address
	trace []byte    // encoded input trace, for trace-kind specs
}

// simJobs builds a simulation workload's specs from the seed.
func simJobs(workload string, seed int64, quick bool) ([]simJob, error) {
	var (
		labels []string
		specs  []spec.Spec
		input  []byte
	)
	switch workload {
	case "table4":
		scale, iters := 16, 4
		if quick {
			scale, iters = 8, 2
		}
		for _, k := range table4Kernels {
			labels = append(labels, k)
			specs = append(specs, spec.Spec{Kind: spec.KindSim, Workload: k,
				DIMMs: 8, Channels: 4, Scale: scale, Iters: iters, Seed: seed})
		}
	case "train":
		scale := 16
		if quick {
			scale = 10
		}
		for _, m := range trainMechs {
			labels = append(labels, m)
			specs = append(specs, spec.Spec{Kind: spec.KindSim, Workload: "train", Mech: m,
				DIMMs: 16, Channels: 8, Scale: scale, Seed: seed})
		}
	case "trace-idc":
		records := 1_000_000
		if quick {
			records = 20_000
		}
		var (
			hash string
			err  error
		)
		input, hash, err = genTrace(seed, records)
		if err != nil {
			return nil, err
		}
		labels = []string{"replay"}
		specs = []spec.Spec{{Kind: spec.KindTrace, Mech: "dimm-link", DIMMs: 8, Channels: 4,
			Map: ingest.MapPage, Trace: hash}}
	default:
		return nil, fmt.Errorf("unknown simulation workload %q", workload)
	}
	jobs := make([]simJob, len(specs))
	for i, sp := range specs {
		n, err := sp.Normalized()
		if err != nil {
			return nil, err
		}
		h, err := n.Hash()
		if err != nil {
			return nil, err
		}
		jobs[i] = simJob{label: labels[i], spec: n, hash: h, trace: input}
	}
	return jobs, nil
}

// genTrace encodes the trace-idc input in the binary ingest format: 64 B
// accesses by 32 threads, a quarter of them writes. Half of a thread's
// accesses stream through its own 32 MiB region, the rest land anywhere in
// a shared 1 GiB footprint. It returns the bytes and their canonical hash.
func genTrace(seed int64, records int) ([]byte, string, error) {
	const (
		threads   = 32
		footprint = 1 << 30
		region    = footprint / threads
		line      = 64
	)
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w, err := ingest.NewWriter(&buf, ingest.FormatBinary, threads)
	if err != nil {
		return nil, "", err
	}
	var cursor [threads]uint64
	for range records {
		t := rng.Intn(threads)
		rec := trace.Record{Thread: t, Size: line, Write: rng.Intn(4) == 0, Gap: uint64(rng.Intn(16))}
		if rng.Intn(2) == 0 {
			rec.Addr = uint64(t)*region + cursor[t]
			cursor[t] = (cursor[t] + line) % region
		} else {
			rec.Addr = uint64(rng.Int63n(footprint)) &^ (line - 1)
		}
		if err := w.Write(&rec); err != nil {
			return nil, "", err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, "", err
	}
	_, _, hash, err := ingest.Drain(bytes.NewReader(buf.Bytes()))
	return buf.Bytes(), hash, err
}

// jobRun is one measured spec run, split into the phases a spec run goes
// through: set-up (system, then workload inputs), the simulated run, and
// rendering the report.
type jobRun struct {
	system, inputs, run, render time.Duration
	ingest                      time.Duration // part of inputs, trace-kind only
	records                     int           // trace records replayed
	mappedRemote                uint64        // records the mapping put off their thread's DIMM

	ops, remote uint64 // simulated memory ops, and those that crossed DIMMs
	checksum    uint64 // functional output checksum
	digest      string // sha256 of the rendered report
	counts      exactCounts
	allocBytes  uint64 // heap bytes allocated during the run phase (traced runs)
}

func (jr jobRun) setup() time.Duration { return jr.system + jr.inputs }
func (jr jobRun) wall() time.Duration  { return jr.setup() + jr.run + jr.render }

// runJob runs one spec through the decomposed path spec.RunSim and
// spec.ReplayTrace take, timing each phase. A non-nil spans times every
// memory-system call of the run phase.
func runJob(j simJob, spans *spanSet) (jobRun, error) {
	var jr jobRun
	t0 := time.Now()
	if j.spec.Kind == spec.KindTrace {
		td, err := ingest.ReadAll(bytes.NewReader(j.trace))
		if err != nil {
			return jr, err
		}
		if td.Hash != j.spec.Trace {
			return jr, fmt.Errorf("ingested trace hash %s, spec names %s", td.Hash, j.spec.Trace)
		}
		jr.ingest = time.Since(t0)
		return runReplay(j, td, jr, spans)
	}
	cfg, err := j.spec.Config()
	if err != nil {
		return jr, err
	}
	sys, err := nmp.NewSystem(cfg)
	if err != nil {
		return jr, err
	}
	t1 := time.Now()
	w, err := j.spec.BuildWorkload(sys)
	if err != nil {
		return jr, err
	}
	t2 := time.Now()
	jr.system, jr.inputs = t1.Sub(t0), t2.Sub(t1)
	mem := startRun(sys, spans)
	res, sum, err := w.Run(sys, sys.DefaultPlacement(), false)
	if err != nil {
		return jr, err
	}
	jr.run, jr.allocBytes = mem.stop()
	jr.checksum = sum
	jr.render = jr.record(&spec.SimRun{Spec: j.spec, Sys: sys, W: w, Res: res, Checksum: sum})
	return jr, nil
}

// runReplay is the trace-kind half of runJob, from an ingested trace on.
func runReplay(j simJob, td *ingest.Data, jr jobRun, spans *spanSet) (jobRun, error) {
	t1 := time.Now()
	cfg, err := j.spec.Config()
	if err != nil {
		return jr, err
	}
	sys, err := nmp.NewSystem(cfg)
	if err != nil {
		return jr, err
	}
	t2 := time.Now()
	placement := sys.DefaultPlacement()
	mapper, err := ingest.NewMapper(j.spec.Map, uint64(j.spec.PageBytes), cfg.Geo)
	if err != nil {
		return jr, err
	}
	mapped := make([]trace.Record, len(td.Records))
	for i, rec := range td.Records {
		home := placement[rec.Thread%len(placement)]
		if rec.Addr, err = mapper.Map(home, rec.Addr, rec.Size); err != nil {
			return jr, fmt.Errorf("trace record %d: %w", i, err)
		}
		if cfg.Geo.DIMMOf(rec.Addr) != home {
			jr.mappedRemote++
		}
		mapped[i] = rec
	}
	rp := &trace.Replay{T: &trace.Trace{Threads: td.Threads, Records: mapped}}
	t3 := time.Now()
	jr.system, jr.inputs = t2.Sub(t1), jr.ingest+t3.Sub(t2)
	jr.records = len(mapped)
	mem := startRun(sys, spans)
	res, _, err := rp.Run(sys, placement, false)
	if err != nil {
		return jr, err
	}
	jr.run, jr.allocBytes = mem.stop()
	// As in spec.ReplayTrace, the report checksum is the head of the
	// trace's content hash.
	head, err := hex.DecodeString(j.spec.Trace[:16])
	if err != nil {
		return jr, err
	}
	jr.checksum = binary.BigEndian.Uint64(head)
	jr.render = jr.record(&spec.SimRun{Spec: j.spec, Sys: sys, W: rp, Res: res, Checksum: jr.checksum})
	return jr, nil
}

// runClock times a run phase and, when traced, the heap bytes it allocated.
type runClock struct {
	start  time.Time
	traced bool
	alloc  uint64
}

// startRun instruments sys's memory system when spans is non-nil and
// starts the run-phase clock.
func startRun(sys *nmp.System, spans *spanSet) runClock {
	c := runClock{traced: spans != nil}
	if c.traced {
		sys.InstrumentMemory(spans.wrap)
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		c.alloc = st.TotalAlloc
	}
	c.start = time.Now()
	return c
}

func (c runClock) stop() (time.Duration, uint64) {
	d := time.Since(c.start)
	if !c.traced {
		return d, 0
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return d, st.TotalAlloc - c.alloc
}

// record renders the run's report, records its digest and counts, and
// returns the rendering time.
func (jr *jobRun) record(run *spec.SimRun) time.Duration {
	t := time.Now()
	var text bytes.Buffer
	run.Report(&text)
	d := time.Since(t)
	jr.digest = sha(text.Bytes())
	jr.counts = countsOf(run.Sys, run.Res)
	jr.ops, jr.remote = jr.counts.ops, jr.counts.remote
	return d
}

// pass is one run of every job of a workload.
type pass struct {
	runs             []jobRun
	setup, run, wall time.Duration // sums over the jobs
	ops              uint64
	spans            *spanSet // traced passes only
}

func runPass(jobs []simJob, spans *spanSet) (pass, error) {
	p := pass{spans: spans}
	for _, j := range jobs {
		jr, err := runJob(j, spans)
		if err != nil {
			return p, fmt.Errorf("%s: %w", j.label, err)
		}
		p.runs = append(p.runs, jr)
		p.setup += jr.setup()
		p.run += jr.run
		p.wall += jr.wall()
		p.ops += jr.ops
	}
	return p, nil
}

// opsRate is the pass's simulated memory ops per host second of run phase.
func (p pass) opsRate() float64 { return float64(p.ops) / p.run.Seconds() }

// checker verifies every job run. Its report must match the golden digest
// committed for the seed, if any, and every earlier run of the same job,
// traced or not; the workload's own invariants must hold.
type checker struct {
	r      *report
	golden map[string]goldenEntry // nil when no golden is committed for the seed
}

func (c *checker) check(jobs []simJob, p pass) {
	for i, j := range jobs {
		jr := p.runs[i]
		var bad []string
		if c.golden != nil {
			switch g, ok := c.golden[j.label]; {
			case !ok:
				bad = append(bad, "no golden entry")
			case g.Spec != j.hash:
				bad = append(bad, "spec hash differs from the golden one (inputs changed; rerun -update-golden)")
			case g.Report != jr.digest:
				bad = append(bad, "report differs from the golden")
			}
		}
		if d, ok := c.r.digests[j.label]; !ok {
			c.r.digests[j.label] = jr.digest
		} else if d != jr.digest {
			bad = append(bad, "report differs from an earlier run")
		}
		switch c.r.workload {
		case "train":
			// The training checksum is integer fixed point, identical for
			// every mechanism.
			if jr.checksum != p.runs[0].checksum {
				bad = append(bad, fmt.Sprintf("checksum %#x differs from %s's %#x", jr.checksum, jobs[0].label, p.runs[0].checksum))
			}
		case "trace-idc":
			if jr.ops != uint64(jr.records) {
				bad = append(bad, fmt.Sprintf("%d memory ops for %d records", jr.ops, jr.records))
			}
			if jr.remote != jr.mappedRemote {
				bad = append(bad, fmt.Sprintf("%d remote ops, but the mapping put %d records off their home DIMM", jr.remote, jr.mappedRemote))
			}
		}
		c.r.tally(j.label, bad)
	}
}

// runSimWorkload runs one untimed warm-up pass, then timed passes for
// o.seconds. A traced run splits the time: untraced passes, then passes
// with the memory system instrumented under a CPU profile.
//
// It runs on one P. Without -parallel a simulation is one event loop fed
// by workload goroutines over unbuffered channels; a second P only turns
// each op handoff into a cross-thread wake-up. On a shared 2-vCPU host
// that made table4 about 25% slower and its run-to-run spread several
// times wider (README.md, "Noise").
func runSimWorkload(o options) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	jobs, err := simJobs(o.workload, o.seed, o.quick)
	if err != nil {
		return nil, err
	}
	r := newReport(o.workload)
	c := &checker{r: r, golden: goldenFor(o.workload, o.seed, o.quick)}
	passes := func(d time.Duration, traced bool) ([]pass, error) {
		var ps []pass
		for end := time.Now().Add(d); len(ps) == 0 || time.Now().Before(end); {
			var spans *spanSet
			if traced {
				spans = new(spanSet)
			}
			// Start every pass from a collected heap, as a fresh dlsim
			// process would, so the previous pass's garbage neither
			// triggers collections in this one nor raises its peak RSS.
			runtime.GC()
			p, err := runPass(jobs, spans)
			if err != nil {
				return nil, err
			}
			c.check(jobs, p)
			ps = append(ps, p)
		}
		return ps, nil
	}
	if _, err := passes(0, false); err != nil {
		return nil, err
	}
	timed := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		ps, err := passes(timed, false)
		if err != nil {
			return nil, err
		}
		addEndToEnd(r, ps)
		r.finish()
		return r, nil
	}
	untraced, err := passes(timed/2, false)
	if err != nil {
		return nil, err
	}
	var traced []pass
	shares, err := profiled(o.work, func() error {
		traced, err = passes(timed/2, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	addLayers(r, untraced, traced, shares)
	r.finish()
	return r, nil
}

// addEndToEnd reports the end-to-end metrics of timed passes, each a
// median over passes. A job is one spec run, set-up and rendering
// included. The jobs of a pass differ in size by design, so a latency
// percentile is taken within each pass and the median over passes is
// reported, which a burst of host noise during one pass does not move.
func addEndToEnd(r *report, ps []pass) {
	var rates, setups, jobRates, p50s, p90s, p99s []float64
	for _, p := range ps {
		rates = append(rates, p.opsRate())
		setups = append(setups, p.setup.Seconds())
		jobRates = append(jobRates, float64(len(p.runs))/p.wall.Seconds())
		var jobMS []float64
		for _, jr := range p.runs {
			jobMS = append(jobMS, ms(jr.wall()))
		}
		p50s = append(p50s, quantile(jobMS, 0.5))
		p90s = append(p90s, quantile(jobMS, 0.9))
		p99s = append(p99s, quantile(jobMS, 0.99))
	}
	r.add("ops_per_s", median(rates), "1/s")
	r.add("ops_per_s.q1", quantile(rates, 0.25), "1/s")
	r.add("ops_per_s.q3", quantile(rates, 0.75), "1/s")
	r.add("reps", float64(len(ps)), "count")
	r.add("setup_s", median(setups), "s")
	r.add("jobs_per_s", median(jobRates), "1/s")
	r.add("job_p50_ms", median(p50s), "ms")
	r.add("job_p90_ms", median(p90s), "ms")
	r.add("job_p99_ms", median(p99s), "ms")
	r.add("job_samples", float64(len(ps)*len(ps[0].runs)), "count")
}

// addLayers reports the per-layer metrics of a traced run: memory-system
// spans and phase times from the traced passes, exact counts from the last
// one, host CPU shares from the profile taken over them, and the tracing
// overhead against the untraced passes.
func addLayers(r *report, untraced, traced []pass, shares map[string]float64) {
	var total spanSet
	var runNS int64
	var system, inputs, render []float64
	var records, ingestNS float64
	for _, p := range traced {
		total.merge(p.spans)
		runNS += p.run.Nanoseconds()
		var sy, in, re time.Duration
		for _, jr := range p.runs {
			sy += jr.system
			in += jr.inputs
			re += jr.render
			records += float64(jr.records)
			ingestNS += float64(jr.ingest)
		}
		system = append(system, sy.Seconds())
		inputs = append(inputs, in.Seconds())
		render = append(render, re.Seconds())
	}
	last := traced[len(traced)-1]
	addSpans(r, &total, last.spans, runNS)
	r.add("setup.system_s", median(system), "s")
	if r.workload == "trace-idc" {
		r.add("setup.map_s", median(inputs), "s") // ingest included
		r.add("ingest.records_per_s", records/(ingestNS/1e9), "1/s")
	} else {
		r.add("setup.workload_s", median(inputs), "s")
		r.add("ingest.records_per_s", 0, "1/s")
	}
	r.add("render_s", median(render), "s")
	r.add("serve.cache_hit_ratio", 0, "ratio")
	var counts exactCounts
	var alloc uint64
	for _, jr := range last.runs {
		counts.add(jr.counts)
		alloc += jr.allocBytes
	}
	addCounts(r, counts, alloc)
	addShares(r, shares)
	rate := func(ps []pass) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.opsRate())
		}
		return median(xs)
	}
	addOverhead(r, rate(untraced), rate(traced))
}

// addOverhead reports how much slower the traced run's ops_per_s was.
func addOverhead(r *report, untraced, traced float64) {
	r.add("ops_per_s.untraced", untraced, "1/s")
	r.add("ops_per_s.traced", traced, "1/s")
	r.add("trace_overhead_pct", 100*(untraced-traced)/untraced, "%")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

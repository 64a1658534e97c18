// layers.go measures the per-layer ledger of a traced run: host time spent
// in each cores.Memory entry point of the nmp memory system, exact
// simulated counts per model layer, and the host CPU profile folded by
// package.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/cores"
	"repro/internal/nmp"
	"repro/internal/sim"
)

// The memory-system spans: one per cores.Memory entry point, with Access
// split by the remote flag it returns. A local access is the cache and
// dram path; a remote one goes through the IDC mechanism (idc, core, noc,
// host).
const (
	spanLocal = iota
	spanRemote
	spanScatter
	spanBroadcast
	spanBarrier
	spanCollective
	numSpans
)

var spanNames = [numSpans]string{"access_local", "access_remote", "scatter", "broadcast", "barrier", "collective"}

// spanSet accumulates calls and host nanoseconds per span. The model runs
// on one goroutine, so a run's spans need no locking.
type spanSet [numSpans]struct {
	calls uint64
	ns    int64
}

func (s *spanSet) wrap(inner cores.Memory) cores.Memory { return &spanMemory{inner, s} }

func (s *spanSet) add(k int, start time.Time) {
	s[k].calls++
	s[k].ns += int64(time.Since(start))
}

func (s *spanSet) merge(o *spanSet) {
	for k := range s {
		s[k].calls += o[k].calls
		s[k].ns += o[k].ns
	}
}

// spanMemory times every call into the memory system it wraps.
type spanMemory struct {
	inner cores.Memory
	s     *spanSet
}

func (m *spanMemory) Access(at sim.Time, core int, addr uint64, size uint32, write bool) (sim.Time, bool) {
	t := time.Now()
	fin, remote := m.inner.Access(at, core, addr, size, write)
	if remote {
		m.s.add(spanRemote, t)
	} else {
		m.s.add(spanLocal, t)
	}
	return fin, remote
}

func (m *spanMemory) Scatter(at sim.Time, core int, addr uint64, span uint64, count uint32, write bool) (sim.Time, bool) {
	t := time.Now()
	fin, remote := m.inner.Scatter(at, core, addr, span, count, write)
	m.s.add(spanScatter, t)
	return fin, remote
}

func (m *spanMemory) Broadcast(at sim.Time, core int, addr uint64, size uint32) sim.Time {
	t := time.Now()
	fin := m.inner.Broadcast(at, core, addr, size)
	m.s.add(spanBroadcast, t)
	return fin
}

func (m *spanMemory) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	t := time.Now()
	fin := m.inner.Barrier(arrivals, threadDIMM)
	m.s.add(spanBarrier, t)
	return fin
}

func (m *spanMemory) Collective(op cores.CollectiveOp, arrivals []sim.Time, threadDIMM []int, bytes uint32) sim.Time {
	t := time.Now()
	fin := m.inner.Collective(op, arrivals, threadDIMM, bytes)
	m.s.add(spanCollective, t)
	return fin
}

// addSpans reports each span's calls in one pass (one), and its host time
// per call and share of the run phase over every traced pass (total,
// runNS). kernel.other.share is the rest of the run phase: the cores op
// handoff, the sim event kernel and the workloads' own compute.
func addSpans(r *report, total, one *spanSet, runNS int64) {
	var sum float64
	for k, name := range spanNames {
		share := float64(total[k].ns) / float64(runNS)
		sum += share
		r.add("nmp."+name+".calls", float64(one[k].calls), "count")
		r.add("nmp."+name+".ns_per_call", ratio(uint64(total[k].ns), total[k].calls), "ns")
		r.add("nmp."+name+".share", share, "share")
	}
	r.add("kernel.other.share", 1-sum, "share")
}

// exactCounts are simulated quantities of one run. They depend only on the
// inputs, so they repeat bit for bit.
type exactCounts struct {
	events, ops, remote   uint64
	l1Hits, l1Accesses    uint64
	l2Hits, l2Accesses    uint64
	rowMisses, dramBursts uint64
	packets, linkBytes    uint64
	intergroup            uint64
}

func countsOf(sys *nmp.System, res nmp.KernelResult) exactCounts {
	c := exactCounts{events: sys.Eng.Processed()}
	for _, st := range res.ThreadStats {
		c.ops += st.Ops
		c.remote += st.RemoteOps
	}
	l1, l2 := sys.CacheStats()
	c.l1Hits, c.l1Accesses = l1.Hits, l1.Hits+l1.Misses
	c.l2Hits, c.l2Accesses = l2.Hits, l2.Hits+l2.Misses
	for _, m := range sys.Modules {
		c.rowMisses += m.Stats.RowMisses
		c.dramBursts += m.Stats.RowHits + m.Stats.RowMisses + m.Stats.RowEmpty
	}
	if sys.IC != nil {
		ic := sys.IC.Counters()
		c.packets = ic.Get("packets")
		c.linkBytes = ic.Get("link.bytes")
		c.intergroup = ic.Get("intergroup.accesses")
	}
	return c
}

func (c *exactCounts) add(o exactCounts) {
	c.events += o.events
	c.ops += o.ops
	c.remote += o.remote
	c.l1Hits += o.l1Hits
	c.l1Accesses += o.l1Accesses
	c.l2Hits += o.l2Hits
	c.l2Accesses += o.l2Accesses
	c.rowMisses += o.rowMisses
	c.dramBursts += o.dramBursts
	c.packets += o.packets
	c.linkBytes += o.linkBytes
	c.intergroup += o.intergroup
}

// addCounts reports a pass's exact counts, and the heap bytes it allocated
// per simulated memory op (which is not exact: the runtime allocates too).
func addCounts(r *report, c exactCounts, allocBytes uint64) {
	r.add("sim.events", float64(c.events), "count")
	r.add("sim.events_per_op", ratio(c.events, c.ops), "ratio")
	r.add("cores.remote_op_ratio", ratio(c.remote, c.ops), "ratio")
	r.add("cache.l1_hit_ratio", ratio(c.l1Hits, c.l1Accesses), "ratio")
	r.add("cache.l2_hit_ratio", ratio(c.l2Hits, c.l2Accesses), "ratio")
	r.add("dram.row_miss_ratio", ratio(c.rowMisses, c.dramBursts), "ratio")
	r.add("idc.packets", float64(c.packets), "count")
	r.add("idc.link_bytes", float64(c.linkBytes), "bytes")
	r.add("idc.intergroup_accesses", float64(c.intergroup), "count")
	r.add("alloc.bytes_per_op", ratio(allocBytes, c.ops), "bytes")
}

// shareLayers are the host_share buckets: the repository's packages a
// simulation or the service spends host time in, two runtime buckets, and
// everything else.
var shareLayers = []string{
	"workloads", "cores", "sim", "nmp", "cache", "dram", "mem", "core", "noc", "host", "idc",
	"ingest", "trace", "spec", "serve", "stats", "metrics", "runtime_sched", "runtime_gc", "other",
}

// Substrings of runtime function names (lower-cased) that mark garbage
// collection and allocation, and goroutine scheduling. The GC list is
// checked first: "scanblock" must not land in sched by its "lock".
var (
	gcWords = []string{"malloc", "newobject", "makeslice", "growslice", "mcache", "mcentral", "mheap",
		"mspan", "gcbits", "gcwork", "gcdrain", "gcbgmark", "gcmark", "gcstart", "scanobject", "scanblock",
		"scanstack", "scanframe", "greyobject", "markroot", "findobject", "heapbits", "sweep", "scaveng",
		"writebarrier", "wbbuf", "bulkbarrier", "memclrnoheappointers", "typepointers", "nextfree", "refill"}
	schedWords = []string{"chan", "park", "ready", "futex", "schedule", "findrunnable", "select", "mcall",
		"gosched", "preempt", "execute", "runq", "stealwork", "note", "sema", "wakep", "startm", "stopm",
		"usleep", "yield", "lock", "netpoll", "casgstatus", "acquirep", "releasep", "handoff", "spinning",
		"checktimers", "goexit", "gogo", "guintptr", "sudog", "waitq"}
)

// layerOf maps a profiled function to its host_share bucket.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 && slices.Contains(shareLayers, rest[:i]) {
			return rest[:i]
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		rest = strings.ToLower(rest)
		for _, w := range gcWords {
			if strings.Contains(rest, w) {
				return "runtime_gc"
			}
		}
		for _, w := range schedWords {
			if strings.Contains(rest, w) {
				return "runtime_sched"
			}
		}
	}
	return "other"
}

// foldTop folds the flat column of `go tool pprof -top` output into each
// host_share bucket's share of all samples.
func foldTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		flat[layerOf(f[5])] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: no samples")
	}
	shares := map[string]float64{}
	for _, l := range shareLayers {
		shares[l] = flat[l] / total
	}
	return shares, nil
}

func addShares(r *report, shares map[string]float64) {
	for _, l := range shareLayers {
		r.add("host_share."+l, shares[l], "share")
	}
}

// profiled runs f under a CPU profile written to a temporary file in dir
// and returns the profile folded into host_share buckets.
func profiled(dir string, f func() error) (map[string]float64, error) {
	fh, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(fh.Name())
	if err := pprof.StartCPUProfile(fh); err != nil {
		fh.Close()
		return nil, err
	}
	err = f()
	pprof.StopCPUProfile()
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", fh.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

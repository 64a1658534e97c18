// Package trace provides memory-trace recording and replay. The paper's
// FPGA prototype (Section V-A) is trace-driven: "We use pre-dumped traces
// to drive the system. The ARM processor translates the memory traces to
// Read/Write requests". This package reproduces that mode: a Recorder
// captures the access stream of any workload run, and Replay drives a
// system from a saved trace without the original workload; internal/ingest
// reads and writes the trace file formats.
package trace

import (
	"fmt"

	"repro/internal/cores"
	"repro/internal/nmp"
	"repro/internal/sim"
)

// Record is one traced memory operation.
type Record struct {
	Thread int
	Addr   uint64
	Size   uint32
	Write  bool
	// Gap is the compute time (core cycles) between the previous operation
	// of this thread and this one.
	Gap uint64
}

// Trace is an ordered set of records, grouped per thread at replay time.
type Trace struct {
	Threads int
	Records []Record
}

// Recorder implements cores.Memory, forwarding to an underlying memory
// system while capturing every access.
type Recorder struct {
	Inner cores.Memory
	Trace Trace

	lastOp map[int]sim.Time
	hz     float64
}

// NewRecorder wraps inner; clockHz converts inter-access times to cycles.
func NewRecorder(inner cores.Memory, threads int, clockHz float64) *Recorder {
	return &Recorder{Inner: inner, Trace: Trace{Threads: threads}, lastOp: map[int]sim.Time{}, hz: clockHz}
}

func (r *Recorder) record(at sim.Time, core int, addr uint64, size uint32, write bool) {
	gapCycles := uint64(0)
	if last, ok := r.lastOp[core]; ok && at > last {
		gapCycles = uint64(float64(at-last) * r.hz / 1e12)
	}
	r.lastOp[core] = at
	r.Trace.Records = append(r.Trace.Records, Record{
		Thread: core, Addr: addr, Size: size, Write: write, Gap: gapCycles,
	})
}

// Access implements cores.Memory.
func (r *Recorder) Access(at sim.Time, core int, addr uint64, size uint32, write bool) (sim.Time, bool) {
	r.record(at, core, addr, size, write)
	return r.Inner.Access(at, core, addr, size, write)
}

// Scatter implements cores.Memory (recorded as one line-sized op per
// scattered element would explode traces; record the envelope instead).
func (r *Recorder) Scatter(at sim.Time, core int, addr uint64, span uint64, count uint32, write bool) (sim.Time, bool) {
	r.record(at, core, addr, count*64, write)
	return r.Inner.Scatter(at, core, addr, span, count, write)
}

// Broadcast implements cores.Memory.
func (r *Recorder) Broadcast(at sim.Time, core int, addr uint64, size uint32) sim.Time {
	r.record(at, core, addr, size, false)
	return r.Inner.Broadcast(at, core, addr, size)
}

// Barrier implements cores.Memory.
func (r *Recorder) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	return r.Inner.Barrier(arrivals, threadDIMM)
}

// Collective implements cores.Memory (pass-through: like barriers,
// collective rendezvous have no per-thread address stream to record).
func (r *Recorder) Collective(op cores.CollectiveOp, arrivals []sim.Time, threadDIMM []int, bytes uint32) sim.Time {
	return r.Inner.Collective(op, arrivals, threadDIMM, bytes)
}

// Replay is a workloads-compatible kernel that re-issues a trace: each
// traced thread becomes one simulated thread replaying its operations in
// order with the recorded compute gaps. Thread IDs beyond the available
// placement wrap around.
type Replay struct {
	T *Trace
}

// Name implements the workload naming convention.
func (r *Replay) Name() string { return "TraceReplay" }

// Run drives the system from the trace. Every record is validated
// against the system's geometry before any simulated work starts, so a
// truncated or corrupt trace is an error with the offending record's
// index — never a mid-kernel panic.
func (r *Replay) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	if len(placement) == 0 {
		return nmp.KernelResult{}, 0, fmt.Errorf("trace: replay needs a non-empty placement")
	}
	total := sys.Cfg.Geo.TotalBytes()
	for i, rec := range r.T.Records {
		switch {
		case rec.Thread < 0:
			return nmp.KernelResult{}, 0, fmt.Errorf("trace: record %d: negative thread %d", i, rec.Thread)
		case rec.Size == 0:
			return nmp.KernelResult{}, 0, fmt.Errorf("trace: record %d: zero-size access", i)
		case rec.Addr+uint64(rec.Size) < rec.Addr || rec.Addr+uint64(rec.Size) > total:
			return nmp.KernelResult{}, 0, fmt.Errorf("trace: record %d: addr %#x + size %d beyond system capacity %#x",
				i, rec.Addr, rec.Size, total)
		}
	}
	perThread := make([][]Record, len(placement))
	for _, rec := range r.T.Records {
		slot := rec.Thread % len(placement)
		perThread[slot] = append(perThread[slot], rec)
	}
	var spawnErr error
	res := sys.RunKernel(profile, func(g *cores.Group) {
		spawnErr = sys.SpawnPlaced(g, placement, func(tid int, c *cores.Ctx) {
			for _, rec := range perThread[tid] {
				c.Compute(rec.Gap)
				if rec.Write {
					c.Store(rec.Addr, rec.Size)
				} else {
					c.Load(rec.Addr, rec.Size)
				}
			}
			c.Drain()
		})
	})
	if spawnErr != nil {
		return nmp.KernelResult{}, 0, spawnErr
	}
	return res, uint64(len(r.T.Records)), nil
}

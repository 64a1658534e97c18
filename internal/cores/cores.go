// Package cores models the processing cores (NMP cores in the DIMM buffer
// chips, and host CPU cores for the baseline) and the threads they run.
//
// Simulation is functional-first and timing-directed (DESIGN.md §3): each
// workload thread runs the real algorithm in its own goroutine against real
// Go data structures, and reports every memory access, compute phase and
// synchronization point through a Ctx. A thread's ops are buffered in
// chunks that the Group driver pulls one at a time, so at most one
// goroutine ever runs, and the driver times every op in simulated-time
// order on one event queue. The whole simulation stays deterministic while
// the workload code reads and writes its data naturally.
//
// The core model is in-order issue with a bounded outstanding-request
// window (MSHR-style): independent accesses (Load/Store) overlap up to the
// window size, dependent loads (LoadDep) block the thread until the data
// returns, and Compute advances the thread's clock. This captures the
// memory-level parallelism that decides how much IDC latency a workload can
// hide — the quantity behind the paper's "non-overlapped IDC cycles".
package cores

import (
	"fmt"

	"repro/internal/sim"
)

// Memory is the memory system a thread group runs against. Implementations
// (internal/nmp) route accesses through caches, local DRAM and the
// configured IDC mechanism.
type Memory interface {
	// Access performs a read/write issued by the given global core at time
	// at, returning the completion time and whether the access left the
	// core's DIMM (an IDC access, for stall attribution).
	Access(at sim.Time, core int, addr uint64, size uint32, write bool) (sim.Time, bool)
	// Scatter performs count line-granularity accesses at row-conflicting
	// offsets within [addr, addr+span) — the random single-element updates
	// of graph and clustering kernels, where each touched element costs a
	// whole cache-line transaction. Returns the last completion.
	Scatter(at sim.Time, core int, addr uint64, span uint64, count uint32, write bool) (sim.Time, bool)
	// Broadcast pushes size bytes at addr from the core's DIMM to all DIMMs.
	Broadcast(at sim.Time, core int, addr uint64, size uint32) sim.Time
	// Barrier synchronizes the calling thread group; see idc.Interconnect.
	Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time
	// Collective performs a gang-wide collective data exchange (AllReduce,
	// ReduceScatter, AllGather, AllToAll) of the given per-rank payload and
	// returns the common release time; like Barrier, every thread of the
	// group participates.
	Collective(op CollectiveOp, arrivals []sim.Time, threadDIMM []int, bytes uint32) sim.Time
}

// CollectiveOp enumerates the gang-wide collective exchanges a workload
// can issue. The memory system maps them onto the configured IDC
// mechanism's collective scheduler (internal/idc Collectives).
type CollectiveOp int

const (
	CollAllReduce CollectiveOp = iota
	CollReduceScatter
	CollAllGather
	CollAllToAll
)

// String implements fmt.Stringer.
func (op CollectiveOp) String() string {
	switch op {
	case CollAllReduce:
		return "allreduce"
	case CollReduceScatter:
		return "reduce-scatter"
	case CollAllGather:
		return "allgather"
	case CollAllToAll:
		return "alltoall"
	}
	return fmt.Sprintf("collective(%d)", int(op))
}

// Config describes the core microarchitecture.
type Config struct {
	ClockHz     float64 // core clock (2.5 GHz in the evaluation)
	Window      int     // outstanding memory requests per thread
	IssueCycles uint64  // core cycles to issue one memory operation
}

// DefaultConfig returns the evaluation's NMP core model: 2.5 GHz, 8
// outstanding misses, single-issue memory pipeline.
func DefaultConfig() Config {
	return Config{ClockHz: 2.5e9, Window: 8, IssueCycles: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("cores: non-positive clock")
	}
	if c.Window <= 0 {
		return fmt.Errorf("cores: window %d <= 0", c.Window)
	}
	return nil
}

// ThreadStats aggregates one thread's time breakdown.
type ThreadStats struct {
	Finish       sim.Time // when the thread completed
	IDCStall     sim.Time // stalled on inter-DIMM accesses and sync
	LocalStall   sim.Time // stalled on local memory
	Ops          uint64   // memory operations issued
	RemoteOps    uint64   // operations that crossed DIMMs
	BytesTouched uint64
}

type opKind uint8

const (
	opLoad opKind = iota
	opLoadDep
	opStore
	opCompute
	opBarrier
	opBroadcast
	opDrain
	opScatter
	opCollective
)

type op struct {
	addr   uint64
	span   uint64
	cycles uint64
	coll   CollectiveOp
	size   uint32
	kind   opKind
	write  bool
}

// opChunk is the most ops a thread buffers before handing them to the
// driver. It bounds the buffer (a chunk also ends at every barrier and
// collective, and when the body returns) while amortizing the goroutine
// round-trip over many ops; see DESIGN.md §3 "Op streams".
const opChunk = 64

type slot struct {
	done   sim.Time
	remote bool
}

type thread struct {
	id       int
	homeDIMM int
	coreID   int
	time     sim.Time
	finished bool
	// win is the outstanding-request window, a ring of cfg.Window slots
	// allocated once: n entries in issue order from win[head].
	win     []slot
	head, n int
	stats   ThreadStats
	resume  func() // the thread's step event, bound once

	// The op stream. The goroutine appends to buf while the driver waits
	// on ready; the driver consumes buf[next:] while the goroutine waits
	// on fill. done is set when the body has returned, so buf then holds
	// the stream's tail.
	buf   []op
	next  int
	done  bool
	fill  chan struct{}
	ready chan struct{}
}

// Group is a gang of threads executing one NMP kernel (or the host
// baseline). All threads participate in every barrier.
type Group struct {
	eng     *sim.Engine
	cfg     Config
	mem     Memory
	period  sim.Time
	threads []*thread
	running int

	barrierArr  []sim.Time
	barrierIn   []bool
	barrierWait int

	// Collective rendezvous state, mirroring the barrier plumbing: all
	// unfinished threads must issue the same collective (op, bytes) before
	// the exchange runs and releases them at a uniform time.
	collArr   []sim.Time
	collIn    []bool
	collWait  int
	collOp    CollectiveOp
	collBytes uint32

	// Profile[i][d] counts thread i's accesses to DIMM d when profiling is
	// enabled — the M[T][N] table of Algorithm 1.
	Profile    [][]uint64
	profiling  bool
	profDIMMs  int
	profDIMMOf func(addr uint64) int
}

// NewGroup creates an empty thread group over the memory system.
func NewGroup(eng *sim.Engine, cfg Config, mem Memory) *Group {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Group{eng: eng, cfg: cfg, mem: mem, period: sim.Period(cfg.ClockHz)}
}

// EnableProfiling starts recording the per-thread, per-DIMM access counts
// used by distance-aware task mapping. dimmOf maps an address to its DIMM;
// numDIMMs sizes the table.
func (g *Group) EnableProfiling(numDIMMs int, dimmOf func(addr uint64) int) {
	g.profiling = true
	g.profDIMMs = numDIMMs
	g.profDIMMOf = dimmOf
	g.Profile = make([][]uint64, len(g.threads))
	for i := range g.Profile {
		g.Profile[i] = make([]uint64, numDIMMs)
	}
}

// Spawn adds a thread with the given home DIMM (-1 for host threads) and
// global core ID, running body. Must be called before Run.
func (g *Group) Spawn(homeDIMM, coreID int, body func(*Ctx)) *ThreadStats {
	t := &thread{
		id:       len(g.threads),
		homeDIMM: homeDIMM,
		coreID:   coreID,
		win:      make([]slot, g.cfg.Window),
		buf:      make([]op, 0, opChunk),
		fill:     make(chan struct{}),
		ready:    make(chan struct{}),
	}
	t.resume = func() { g.step(t) }
	g.threads = append(g.threads, t)
	g.running++
	if g.profiling {
		g.Profile = append(g.Profile, make([]uint64, g.profDIMMs))
	}
	go func() {
		<-t.fill
		body(&Ctx{t: t})
		t.done = true
		t.ready <- struct{}{}
	}()
	return &t.stats
}

// Threads returns the number of spawned threads.
func (g *Group) Threads() int { return len(g.threads) }

// Run drives the simulation until every thread has finished and returns
// the makespan (the last thread's finish time). It panics on deadlock
// (mismatched barriers), which is always a workload bug.
func (g *Group) Run() sim.Time {
	g.barrierArr = make([]sim.Time, len(g.threads))
	g.barrierIn = make([]bool, len(g.threads))
	g.collArr = make([]sim.Time, len(g.threads))
	g.collIn = make([]bool, len(g.threads))
	for _, t := range g.threads {
		g.eng.At(g.eng.Now(), t.resume)
	}
	for g.running > 0 {
		if !g.eng.Step() {
			panic(fmt.Sprintf("cores: deadlock with %d threads unfinished (mismatched barriers?)", g.running))
		}
	}
	var makespan sim.Time
	for _, t := range g.threads {
		if t.stats.Finish > makespan {
			makespan = t.stats.Finish
		}
	}
	return makespan
}

// Stats returns the per-thread statistics (valid after Run).
func (g *Group) Stats() []ThreadStats {
	out := make([]ThreadStats, len(g.threads))
	for i, t := range g.threads {
		out[i] = t.stats
	}
	return out
}

// next returns thread t's next op, pulling a fresh chunk from its
// goroutine once the current one is consumed; ok is false when the
// stream has ended. The pull is the only point where a workload body
// runs, and the driver blocks until the body hands the chunk over, so
// bodies never run concurrently with each other or with the model. This
// is sound because Ctx exposes no time queries and no op returns data:
// the op stream a body produces cannot depend on when its ops are timed.
func (g *Group) next(t *thread) (o op, ok bool) {
	if t.next == len(t.buf) {
		if t.done {
			return op{}, false
		}
		t.buf, t.next = t.buf[:0], 0
		t.fill <- struct{}{}
		<-t.ready
		if len(t.buf) == 0 {
			return op{}, false
		}
	}
	o = t.buf[t.next]
	t.next++
	return o, true
}

// step resumes thread t at its current simulated time, takes its next
// operation, and processes it.
func (g *Group) step(t *thread) {
	o, ok := g.next(t)
	if !ok {
		g.retireAll(t)
		t.finished = true
		t.stats.Finish = t.time
		t.buf = nil
		g.running--
		g.checkBarrier()
		g.checkCollective()
		return
	}
	switch o.kind {
	case opBarrier:
		g.retireAll(t)
		g.barrierArr[t.id] = t.time
		g.barrierIn[t.id] = true
		g.barrierWait++
		g.checkBarrier()
	case opCollective:
		g.retireAll(t)
		if g.collWait == 0 {
			g.collOp, g.collBytes = o.coll, o.size
		} else if g.collOp != o.coll || g.collBytes != o.size {
			panic(fmt.Sprintf("cores: mismatched collectives in one gang: %v/%d vs %v/%d",
				g.collOp, g.collBytes, o.coll, o.size))
		}
		g.collArr[t.id] = t.time
		g.collIn[t.id] = true
		g.collWait++
		g.checkCollective()
	case opCompute:
		t.time += sim.Cycles(o.cycles, g.period)
		g.schedule(t)
	case opLoad, opStore:
		g.issue(t, o)
		g.schedule(t)
	case opScatter:
		g.makeRoom(t)
		done, remote := g.mem.Scatter(t.time, t.coreID, o.addr, o.span, o.size, o.write)
		t.push(slot{done: done, remote: remote})
		t.stats.Ops++
		t.stats.BytesTouched += uint64(o.size) * 64
		if remote {
			t.stats.RemoteOps++
		}
		if g.profiling {
			g.Profile[t.id][g.profDIMMOf(o.addr)] += uint64(o.size)
		}
		t.time += sim.Cycles(g.cfg.IssueCycles*uint64(o.size), g.period)
		g.schedule(t)
	case opLoadDep:
		g.makeRoom(t)
		done, remote := g.access(t, o)
		g.accountWait(t, done, remote)
		t.time = done
		g.schedule(t)
	case opBroadcast:
		g.retireAll(t)
		done := g.mem.Broadcast(t.time, t.coreID, o.addr, o.size)
		g.accountWait(t, done, true)
		t.time = done
		t.stats.Ops++
		t.stats.RemoteOps++
		t.stats.BytesTouched += uint64(o.size)
		g.schedule(t)
	case opDrain:
		g.retireAll(t)
		g.schedule(t)
	default:
		panic(fmt.Sprintf("cores: unknown op kind %d", o.kind))
	}
}

func (g *Group) schedule(t *thread) { g.eng.At(t.time, t.resume) }

// issue puts a non-dependent access into the window, stalling only when the
// window is full.
func (g *Group) issue(t *thread, o op) {
	g.makeRoom(t)
	done, remote := g.access(t, o)
	t.push(slot{done: done, remote: remote})
	t.time += sim.Cycles(g.cfg.IssueCycles, g.period)
}

// push appends s to the window; makeRoom has made room for it.
func (t *thread) push(s slot) {
	i := t.head + t.n
	if i >= len(t.win) {
		i -= len(t.win)
	}
	t.win[i] = s
	t.n++
}

// pop removes and returns the oldest window entry.
func (t *thread) pop() slot {
	s := t.win[t.head]
	t.head++
	if t.head == len(t.win) {
		t.head = 0
	}
	t.n--
	return s
}

// makeRoom retires the oldest window entry, stalling the thread if it is
// still outstanding.
func (g *Group) makeRoom(t *thread) {
	if t.n < len(t.win) {
		return
	}
	oldest := t.pop()
	g.accountWait(t, oldest.done, oldest.remote)
	if oldest.done > t.time {
		t.time = oldest.done
	}
}

// retireAll drains the window (barrier, broadcast, kernel end).
func (g *Group) retireAll(t *thread) {
	for t.n > 0 {
		s := t.pop()
		g.accountWait(t, s.done, s.remote)
		if s.done > t.time {
			t.time = s.done
		}
	}
}

// accountWait attributes the stall (if any) between the thread's clock and
// the completion time.
func (g *Group) accountWait(t *thread, done sim.Time, remote bool) {
	if done <= t.time {
		return
	}
	stall := done - t.time
	if remote {
		t.stats.IDCStall += stall
	} else {
		t.stats.LocalStall += stall
	}
}

// access performs the memory access and updates profiling and counters.
func (g *Group) access(t *thread, o op) (sim.Time, bool) {
	done, remote := g.mem.Access(t.time, t.coreID, o.addr, o.size, o.kind == opStore)
	t.stats.Ops++
	t.stats.BytesTouched += uint64(o.size)
	if remote {
		t.stats.RemoteOps++
	}
	if g.profiling {
		g.Profile[t.id][g.profDIMMOf(o.addr)]++
	}
	return done, remote
}

// checkBarrier releases the barrier once every unfinished thread arrived.
func (g *Group) checkBarrier() {
	if g.barrierWait == 0 || g.barrierWait < g.running {
		return
	}
	var arrivals []sim.Time
	var dimms []int
	var ids []int
	for _, t := range g.threads {
		if t.finished || !g.barrierIn[t.id] {
			continue
		}
		arrivals = append(arrivals, g.barrierArr[t.id])
		dimms = append(dimms, t.homeDIMM)
		ids = append(ids, t.id)
	}
	release := g.mem.Barrier(arrivals, dimms)
	// If the barrier was completed by a thread *finishing* (rather than
	// arriving), the release cannot predate that discovery.
	if now := g.eng.Now(); release < now {
		release = now
	}
	for i, id := range ids {
		t := g.threads[id]
		g.barrierIn[id] = false
		t.stats.IDCStall += release - arrivals[i]
		t.time = release
		g.schedule(t)
	}
	g.barrierWait = 0
}

// checkCollective runs the collective exchange once every unfinished
// thread issued it, then releases them all at the uniform time.
func (g *Group) checkCollective() {
	if g.collWait == 0 || g.collWait < g.running {
		return
	}
	var arrivals []sim.Time
	var dimms []int
	var ids []int
	for _, t := range g.threads {
		if t.finished || !g.collIn[t.id] {
			continue
		}
		arrivals = append(arrivals, g.collArr[t.id])
		dimms = append(dimms, t.homeDIMM)
		ids = append(ids, t.id)
	}
	release := g.mem.Collective(g.collOp, arrivals, dimms, g.collBytes)
	// As with barriers: when the rendezvous completes because a thread
	// finished, the release cannot predate that discovery.
	if now := g.eng.Now(); release < now {
		release = now
	}
	for i, id := range ids {
		t := g.threads[id]
		g.collIn[id] = false
		t.stats.IDCStall += release - arrivals[i]
		t.stats.Ops++
		t.stats.RemoteOps++
		t.stats.BytesTouched += uint64(g.collBytes)
		t.time = release
		g.schedule(t)
	}
	g.collWait = 0
}

// Ctx is the interface workload code uses to interact with the timing
// model. All methods must be called from the thread's own goroutine.
type Ctx struct {
	t *thread
}

// send appends o to the thread's chunk and hands the chunk to the driver
// when it is full or ends at a rendezvous, then waits for the driver to
// ask for the next one.
func (c *Ctx) send(o op) {
	t := c.t
	t.buf = append(t.buf, o)
	if len(t.buf) == opChunk || o.kind == opBarrier || o.kind == opCollective {
		t.ready <- struct{}{}
		<-t.fill
	}
}

// Load issues an independent read of size bytes; it returns once the
// request is in flight (the window bounds outstanding requests).
func (c *Ctx) Load(addr uint64, size uint32) { c.send(op{kind: opLoad, addr: addr, size: size}) }

// LoadDep issues a dependent read (pointer chase): the thread blocks until
// the data has returned.
func (c *Ctx) LoadDep(addr uint64, size uint32) { c.send(op{kind: opLoadDep, addr: addr, size: size}) }

// Store issues an independent write.
func (c *Ctx) Store(addr uint64, size uint32) { c.send(op{kind: opStore, addr: addr, size: size}) }

// Compute advances the thread by n core cycles of computation.
func (c *Ctx) Compute(n uint64) {
	if n > 0 {
		c.send(op{kind: opCompute, cycles: n})
	}
}

// Barrier synchronizes with every other thread in the group, using the
// memory system's synchronization mechanism.
func (c *Ctx) Barrier() { c.send(op{kind: opBarrier}) }

// Broadcast pushes size bytes at addr (on this thread's DIMM) to all DIMMs
// and blocks until the last DIMM received them.
func (c *Ctx) Broadcast(addr uint64, size uint32) {
	c.send(op{kind: opBroadcast, addr: addr, size: size})
}

// Collective joins a gang-wide collective exchange of bytes per rank; the
// thread blocks until the exchange completes. Every thread of the group
// must issue the same (op, bytes) pair, like a barrier.
func (c *Ctx) Collective(op CollectiveOp, bytes uint32) {
	c.send(op2coll(op, bytes))
}

func op2coll(o CollectiveOp, bytes uint32) op {
	return op{kind: opCollective, coll: o, size: bytes}
}

// AllReduce sums a bytes-sized payload across all ranks, leaving every
// rank with the full result (the gradient exchange of data-parallel
// training).
func (c *Ctx) AllReduce(bytes uint32) { c.Collective(CollAllReduce, bytes) }

// Drain blocks until all of this thread's outstanding accesses complete.
func (c *Ctx) Drain() { c.send(op{kind: opDrain}) }

// ScatterStore issues count random single-element updates within
// [addr, addr+span): each costs one line-granularity memory transaction
// (on any system — this is the access pattern near-memory processing
// exists to accelerate). The op occupies one window slot; lines contend in
// the memory system.
func (c *Ctx) ScatterStore(addr uint64, span uint64, count uint32) {
	if count == 0 {
		return
	}
	c.send(op{kind: opScatter, addr: addr, span: span, size: count, write: true})
}

// ScatterLoad is ScatterStore for reads.
func (c *Ctx) ScatterLoad(addr uint64, span uint64, count uint32) {
	if count == 0 {
		return
	}
	c.send(op{kind: opScatter, addr: addr, span: span, size: count, write: false})
}

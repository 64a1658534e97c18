package idc

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file adds collective communication (AllReduce, the gradient
// exchange of data-parallel training) as a first-class IDC layer. The
// scheduler is a composable wrapper over any Interconnect: every data
// movement it issues is an ordinary remote Access (and, for tree
// distribution, a Broadcast), so each mechanism's own contention model
// applies — MCN serializes on the host forwarding thread, AIM on the
// dedicated bus, DIMM-Link on its SerDes links with hybrid inter-group
// routing. Under an active fault plan the DIMM-Link transport
// transparently retries, reroutes, and host-falls-back per packet
// (RouteAt / BroadcastPlanAt), so collectives degrade gracefully without
// any collective-specific fault handling.

// CollAlgo names a collective schedule.
type CollAlgo string

const (
	// AlgoAuto selects per mechanism and topology (SelectAlgo).
	AlgoAuto CollAlgo = ""
	// AlgoRing is the bandwidth-optimal ring schedule: N-1 rounds of
	// neighbor exchanges moving bytes/N chunks.
	AlgoRing CollAlgo = "ring"
	// AlgoHalving is recursive halving-doubling: log2(N) rounds of
	// pairwise exchanges at power-of-two distances. Requires a power-of-two
	// rank count; the scheduler falls back to ring otherwise.
	AlgoHalving CollAlgo = "hd"
	// AlgoTree gathers to a root and redistributes with the mechanism's
	// native Broadcast — the right shape for host-forwarded transports
	// (MCN, ABC-DIMM) and AIM's single-transaction broadcast bus.
	AlgoTree CollAlgo = "tree"
)

// ValidAlgo reports whether s names a known algorithm (or auto).
func ValidAlgo(s string) bool {
	switch CollAlgo(s) {
	case AlgoAuto, AlgoRing, AlgoHalving, AlgoTree:
		return true
	}
	return false
}

// SelectAlgo picks the schedule for a mechanism/topology pair. DIMM-Link's
// point-to-point bridges favor neighbor schedules: ring on chain/ring
// wiring, halving-doubling on mesh/torus (whose extra links serve the
// long-distance pairs). The host-forwarded and bus mechanisms gain nothing
// from neighbor traffic — every transfer crosses the same shared medium —
// but all three have hardware-assisted broadcast, so they gather to a root
// and use it.
func SelectAlgo(mech, topology string) CollAlgo {
	if mech == "dimm-link" {
		switch topology {
		case "mesh", "torus":
			return AlgoHalving
		default: // chain, ring
			return AlgoRing
		}
	}
	return AlgoTree
}

// reduceBytesPerSec is the per-DIMM throughput of folding a received
// chunk into the local accumulator: a rank-level NMP-core vector add at
// 10 GB/s. Threads hand off to and from their DIMM master at
// IntraDIMMSyncCost on entry and release, matching the barrier model.
const reduceBytesPerSec = 10e9

// Collectives schedules collective operations over an Interconnect. It is
// not goroutine-safe; like the Interconnect itself it is serialized by the
// simulation engine.
type Collectives struct {
	ic   Interconnect
	geo  mem.Geometry
	algo CollAlgo

	// Handles into ic.Counters().
	episodes, steps, payload *stats.Counter
}

// NewCollectives builds a scheduler over ic that runs algo. The caller
// resolves AlgoAuto first (SelectAlgo), so auto is chosen in one place.
func NewCollectives(ic Interconnect, geo mem.Geometry, algo CollAlgo) *Collectives {
	if algo == AlgoAuto || !ValidAlgo(string(algo)) {
		panic(fmt.Sprintf("idc: collective algorithm %q is not a schedule (resolve auto with SelectAlgo)", algo))
	}
	ctrs := ic.Counters()
	return &Collectives{ic: ic, geo: geo, algo: algo,
		episodes: ctrs.Handle(CtrCollectives),
		steps:    ctrs.Handle(CtrCollSteps),
		payload:  ctrs.Handle(CtrCollBytes),
	}
}

// Algo returns the configured schedule (never AlgoAuto).
func (c *Collectives) Algo() CollAlgo { return c.algo }

// Run executes an AllReduce over the calling gang: arrivals[i] is when
// thread i entered the collective and threadDIMM[i] its home DIMM. bytes
// is the full per-rank payload (the gradient size). All threads are
// released at the returned uniform time.
//
// Threads first aggregate per DIMM (the DIMM master owns the rank), the
// distinct DIMMs run the schedule, and the release pays the intra-DIMM
// hand-off again — mirroring the barrier cost model.
func (c *Collectives) Run(arrivals []sim.Time, threadDIMM []int, bytes uint32) sim.Time {
	c.episodes.Inc()
	c.payload.Add(uint64(bytes))

	ranks, t := c.rankTimes(arrivals, threadDIMM)
	n := len(ranks)
	if n > 1 && bytes > 0 {
		algo := c.algo
		if algo == AlgoHalving && n&(n-1) != 0 {
			algo = AlgoRing // halving-doubling needs a power-of-two rank count
		}
		// Ring and halving-doubling each run a reduce-scatter pass, then
		// an allgather pass.
		switch algo {
		case AlgoRing:
			c.ringPass(t, ranks, bytes, true)
			c.ringPass(t, ranks, bytes, false)
		case AlgoHalving:
			c.halving(t, ranks, bytes)
			c.doubling(t, ranks, bytes)
		default: // AlgoTree
			c.tree(t, ranks, bytes)
		}
	}
	global := t[0]
	for _, ti := range t[1:] {
		if ti > global {
			global = ti
		}
	}
	return global + IntraDIMMSyncCost
}

// rankTimes folds the per-thread arrivals into one start time per distinct
// DIMM (sorted ascending for a deterministic schedule): the DIMM master
// launches once its slowest local thread has handed off.
func (c *Collectives) rankTimes(arrivals []sim.Time, threadDIMM []int) ([]int, []sim.Time) {
	latest := make(map[int]sim.Time, len(threadDIMM))
	for i, d := range threadDIMM {
		if d < 0 {
			panic("idc: collective thread without a home DIMM")
		}
		if cur, ok := latest[d]; !ok || arrivals[i] > cur {
			latest[d] = arrivals[i]
		}
	}
	ranks := make([]int, 0, len(latest))
	for d := range latest {
		ranks = append(ranks, d)
	}
	sort.Ints(ranks)
	t := make([]sim.Time, len(ranks))
	for i, d := range ranks {
		t[i] = latest[d] + IntraDIMMSyncCost
	}
	return ranks, t
}

// send moves size bytes from rank src to rank dst (distinct DIMMs) as a
// remote write through the underlying transport, landing at the start of
// the destination DIMM's address range.
func (c *Collectives) send(at sim.Time, src, dst int, size uint32) sim.Time {
	if src == dst || size == 0 {
		return at
	}
	return c.ic.Access(at, src, c.geo.DIMMBase(dst), size, true)
}

// reduceTime is the cost of folding size received bytes into the local
// accumulator.
func (c *Collectives) reduceTime(size uint32) sim.Time {
	return sim.TransferTime(uint64(size), reduceBytesPerSec)
}

// chunkOf splits bytes into n per-rank chunks, rounding up.
func chunkOf(bytes uint32, n int) uint32 {
	ch := (bytes + uint32(n) - 1) / uint32(n)
	if ch == 0 {
		ch = 1
	}
	return ch
}

// ringPass runs the n-1 neighbor-exchange rounds of the ring schedule over
// chunks of bytes/n: the reduce-scatter pass folds each received chunk
// into the accumulator; the allgather pass just stores it.
func (c *Collectives) ringPass(t []sim.Time, ranks []int, bytes uint32, reduce bool) {
	n := len(ranks)
	chunk := chunkOf(bytes, n)
	arrive := make([]sim.Time, n)
	for s := 0; s < n-1; s++ {
		c.steps.Inc()
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			done := c.send(t[i], ranks[i], ranks[j], chunk)
			if reduce {
				done += c.reduceTime(chunk)
			}
			arrive[j] = done
		}
		for i := 0; i < n; i++ {
			if arrive[i] > t[i] {
				t[i] = arrive[i]
			}
		}
	}
}

// halving runs the log2(n) recursive-halving rounds of a reduce-scatter:
// round r exchanges bytes>>(r+1) with the partner at index distance
// n>>(r+1), folding the received half.
func (c *Collectives) halving(t []sim.Time, ranks []int, bytes uint32) {
	n := len(ranks)
	arrive := make([]sim.Time, n)
	for dist := n >> 1; dist >= 1; dist >>= 1 {
		c.steps.Inc()
		vol := bytes / uint32(n/dist)
		if vol == 0 {
			vol = 1
		}
		for i := 0; i < n; i++ {
			p := i ^ dist
			arrive[p] = c.send(t[i], ranks[i], ranks[p], vol) + c.reduceTime(vol)
		}
		for i := 0; i < n; i++ {
			if arrive[i] > t[i] {
				t[i] = arrive[i]
			}
		}
	}
}

// doubling runs the log2(n) recursive-doubling rounds of an allgather:
// round r exchanges the bytes/n * 2^r accumulated so far with the partner
// at index distance 2^r.
func (c *Collectives) doubling(t []sim.Time, ranks []int, bytes uint32) {
	n := len(ranks)
	arrive := make([]sim.Time, n)
	for dist := 1; dist < n; dist <<= 1 {
		c.steps.Inc()
		vol := chunkOf(bytes, n) * uint32(dist)
		for i := 0; i < n; i++ {
			p := i ^ dist
			arrive[p] = c.send(t[i], ranks[i], ranks[p], vol)
		}
		for i := 0; i < n; i++ {
			if arrive[i] > t[i] {
				t[i] = arrive[i]
			}
		}
	}
}

// tree gathers every rank's payload at the root and redistributes the
// result with the mechanism's native Broadcast. The root folds incoming
// payloads in arrival order — the gather serializes on the shared medium
// anyway, which is exactly the host-forwarding bottleneck this schedule
// models.
func (c *Collectives) tree(t []sim.Time, ranks []int, bytes uint32) {
	n := len(ranks)
	root := 0
	in := make([]sim.Time, 0, n-1)
	for i := 1; i < n; i++ {
		c.steps.Inc()
		in = append(in, c.send(t[i], ranks[i], ranks[root], bytes))
	}
	sort.Slice(in, func(a, b int) bool { return in[a] < in[b] })
	cur := t[root]
	for _, a := range in {
		cur = max(cur, a) + c.reduceTime(bytes)
	}
	c.steps.Inc()
	fin := c.ic.Broadcast(cur, ranks[root], c.geo.DIMMBase(ranks[root]), bytes)
	for i := range t {
		t[i] = fin
	}
}

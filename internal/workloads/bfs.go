package workloads

import (
	"fmt"

	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// Modeling constants for the graph workloads; per-edge compute follows
// prior NMP evaluations.
const (
	cyclesPerEdge   = 6
	cyclesPerVertex = 20
)

// allocAdjacency places each partition's CSR slice (4 bytes per edge, or 8
// with weights) on the partition's DIMM as private, cacheable data.
// adjEntryBytes is the size of one adjacency entry: 64-bit vertex IDs
// (16 bytes with the edge weight), matching production graph engines.
const (
	adjEntryBytes         = 8
	adjEntryWeightedBytes = 16
	ghostRecordBytes      = 16 // 8B vertex ID + 8B value on the wire
)

func allocAdjacency(sys *nmp.System, name string, g *CSR, parts Parts, weighted bool) []*mem.Segment {
	elem := uint64(adjEntryBytes)
	if weighted {
		elem = adjEntryWeightedBytes
	}
	segs := make([]*mem.Segment, parts.T)
	for q := 0; q < parts.T; q++ {
		lo, hi := parts.Range(q)
		edges := uint64(g.Offsets[hi] - g.Offsets[lo])
		if edges == 0 {
			edges = 1
		}
		segs[q] = sys.Space.MustAllocOn(
			fmt.Sprintf("%s.adj.%d", name, q), edges*elem, sys.PartitionDIMM(q), mem.Private)
	}
	return segs
}

// chargeScattered charges count random single-element touches of partition
// q's state: each costs a line-granularity memory transaction (the access
// pattern near-memory processing exists to accelerate — a CPU pays a whole
// cache line of bandwidth per scattered element just the same).
func chargeScattered(c *cores.Ctx, parts Parts, q int, count int, write bool) {
	if count == 0 {
		return
	}
	seg := parts.Seg(q)
	if write {
		c.ScatterStore(seg.Addr(0), seg.Size, uint32(count))
	} else {
		c.ScatterLoad(seg.Addr(0), seg.Size, uint32(count))
	}
}

// BFS is level-synchronized breadth-first search with push-style frontier
// expansion and bulk update exchange at level boundaries.
type BFS struct {
	G      *CSR
	Source int32
}

// NewBFSFromGraph builds a BFS over an existing graph, rooted at the
// highest-degree vertex.
func NewBFSFromGraph(g *CSR) *BFS {
	return &BFS{G: g, Source: g.MaxDegreeVertex()}
}

// Name implements Workload.
func (b *BFS) Name() string { return "BFS" }

// Run implements Workload.
func (b *BFS) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	g := b.G
	t := len(placement)
	parts := MakeParts(int(g.N), t)
	parts.AllocState(sys, "bfs.level", 8, mem.SharedRW)
	adj := allocAdjacency(sys, "bfs", g, parts, false)
	ib := newInboxes(sys, "bfs", parts, 8*uint64(parts.per))

	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	level[b.Source] = 0

	// Shared BSP state: out[s][q] holds sender s's updates for partition q;
	// frontiers and activity counts are per-partition. All mutation happens
	// between Ctx calls, so the scheduler serializes it. sent[s][u] stamps
	// ghost vertices already queued this level (per-destination-vertex
	// aggregation, as real BSP graph systems do — a vertex reached over many
	// cut edges travels once).
	out := make([][][]int32, t)
	sent := make([][]int32, t)
	for s := range out {
		out[s] = make([][]int32, t)
		sent[s] = make([]int32, g.N)
	}
	frontier := make([][]int32, t)
	next := make([][]int32, t)
	active := make([]int, t)
	srcPart := parts.Of(int(b.Source))
	frontier[srcPart] = append(frontier[srcPart], b.Source)
	active[srcPart] = 1

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, _ := parts.Range(me)
		offBase := uint64(g.Offsets[lo])
		depth := int32(0)
		for {
			localUpdates := 0
			for _, v := range frontier[me] {
				deg := uint64(g.Degree(v))
				if deg > 0 {
					streamLoad(c, adj[me], (uint64(g.Offsets[v])-offBase)*adjEntryBytes, deg*adjEntryBytes)
				}
				c.Compute(deg*cyclesPerEdge + cyclesPerVertex)
				for _, u := range g.Neighbors(v) {
					q := parts.Of(int(u))
					if q == me {
						if level[u] == -1 {
							level[u] = depth + 1
							next[me] = append(next[me], u)
							localUpdates++
						}
					} else if sent[me][u] != depth+1 {
						sent[me][u] = depth + 1
						out[me][q] = append(out[me][q], u)
					}
				}
			}
			chargeScattered(c, parts, me, localUpdates, true)
			for q := 0; q < t; q++ {
				if q != me {
					ib.send(c, me, q, uint64(len(out[me][q]))*8)
				}
			}
			c.Barrier()
			// Apply phase: drain all senders' updates for my partition.
			applied := 0
			for s := 0; s < t; s++ {
				if s == me {
					continue
				}
				msgs := out[s][me]
				ib.recv(c, me, s, uint64(len(msgs))*8)
				for _, u := range msgs {
					if level[u] == -1 {
						level[u] = depth + 1
						next[me] = append(next[me], u)
						applied++
					}
				}
			}
			chargeScattered(c, parts, me, applied, true)
			active[me] = len(next[me])
			c.Barrier()
			// Termination: everyone sees the per-partition activity counts.
			total := 0
			for _, a := range active {
				total += a
			}
			// Rotate frontiers; clear my outboxes and others' boxes to me.
			frontier[me], next[me] = next[me], frontier[me][:0]
			for s := 0; s < t; s++ {
				out[s][me] = out[s][me][:0]
			}
			c.Barrier()
			if total == 0 {
				return
			}
			depth++
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, hashUint32s(level), nil
}

package workloads

import (
	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// PageRank runs fixed-iteration push-style PageRank with per-iteration bulk
// exchange of (vertex, contribution) pairs; Broadcast selects the
// ABC-DIMM-style broadcast formulation of Figure 12, where each thread
// broadcasts its whole rank partition instead of point-to-point updates.
type PageRank struct {
	G         *CSR
	Iters     int
	Broadcast bool
}

// NewPageRankFromGraph builds PageRank over an existing graph.
func NewPageRankFromGraph(g *CSR, iters int) *PageRank {
	return &PageRank{G: g, Iters: iters}
}

// Name implements Workload.
func (p *PageRank) Name() string {
	if p.Broadcast {
		return "PR-BC"
	}
	return "PR"
}

const damping = 0.85

// Run implements Workload.
func (p *PageRank) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	g := p.G
	t := len(placement)
	parts := MakeParts(int(g.N), t)
	parts.AllocState(sys, "pr.rank", 8, mem.SharedRW)
	adj := allocAdjacency(sys, "pr", g, parts, false)
	ib := newInboxes(sys, "pr", parts, ghostRecordBytes*uint64(parts.per))

	rank := make([]float64, g.N)
	sums := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1.0 / float64(g.N)
	}
	// Ghost-vertex aggregation (as real BSP graph engines do): each sender
	// accumulates one contribution per distinct remote vertex per
	// iteration, so the wire carries one (vertex, value) record per ghost,
	// not one per cut edge. touched[s][q] lists sender s's ghosts in
	// partition q; acc[s][u] is the accumulated share; stamp[s][u] marks
	// the iteration.
	touched := make([][][]int32, t)
	acc := make([][]float64, t)
	stamp := make([][]int32, t)
	for s := range touched {
		touched[s] = make([][]int32, t)
		acc[s] = make([]float64, g.N)
		stamp[s] = make([]int32, g.N)
	}

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := parts.Range(me)
		offBase := uint64(g.Offsets[lo])
		myBytes := uint64(parts.Size(me)) * 8
		for iter := 0; iter < p.Iters; iter++ {
			// Push phase: stream my partition's ranks and adjacency.
			streamLoad(c, parts.Seg(me), 0, myBytes)
			for v := lo; v < hi; v++ {
				deg := g.Degree(int32(v))
				if deg == 0 {
					continue
				}
				streamLoad(c, adj[me], (uint64(g.Offsets[v])-offBase)*adjEntryBytes, uint64(deg)*adjEntryBytes)
				c.Compute(uint64(deg)*cyclesPerEdge + cyclesPerVertex)
				share := rank[v] / float64(deg)
				for _, u := range g.Neighbors(int32(v)) {
					q := parts.Of(int(u))
					if q == me {
						sums[u] += share
					} else {
						if stamp[me][u] != int32(iter)+1 {
							stamp[me][u] = int32(iter) + 1
							acc[me][u] = 0
							touched[me][q] = append(touched[me][q], u)
						}
						acc[me][u] += share
					}
				}
			}
			chargeScattered(c, parts, me, parts.Size(me), true)
			if p.Broadcast {
				// Broadcast formulation: ship the whole partition's rank
				// vector to every DIMM in one broadcast; receivers then
				// apply all contributions locally.
				c.Broadcast(parts.Seg(me).Addr(0), uint32(myBytes))
			} else {
				for q := 0; q < t; q++ {
					if q != me {
						ib.send(c, me, q, uint64(len(touched[me][q]))*ghostRecordBytes)
					}
				}
			}
			c.Barrier()
			// Apply phase.
			for s := 0; s < t; s++ {
				if s == me {
					continue
				}
				ghosts := touched[s][me]
				if !p.Broadcast {
					ib.recv(c, me, s, uint64(len(ghosts))*ghostRecordBytes)
				} else if len(ghosts) > 0 {
					// Broadcast delivered the ranks; recompute contributions
					// from the local copy (scan cost only).
					chargeScattered(c, parts, me, len(ghosts), false)
					c.Compute(uint64(len(ghosts)) * 2)
				}
				for _, u := range ghosts {
					sums[u] += acc[s][u]
				}
			}
			// New ranks for my partition.
			for v := lo; v < hi; v++ {
				rank[v] = (1-damping)/float64(g.N) + damping*sums[v]
			}
			chargeScattered(c, parts, me, parts.Size(me), true)
			c.Compute(uint64(parts.Size(me)) * 2)
			c.Barrier()
			// Reset for the next iteration.
			for v := lo; v < hi; v++ {
				sums[v] = 0
			}
			for s := 0; s < t; s++ {
				touched[s][me] = touched[s][me][:0]
			}
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, hashFloats(rank), nil
}

package workloads

import (
	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// SSSP is level-synchronized Bellman-Ford single-source shortest paths with
// an active-vertex frontier and bulk exchange of (vertex, distance) relax
// messages. Broadcast selects the Figure 12 broadcast formulation.
type SSSP struct {
	G         *CSR
	Source    int32
	Broadcast bool
}

// NewSSSPFromGraph builds SSSP over an existing weighted graph, rooted at
// the highest-degree vertex.
func NewSSSPFromGraph(g *CSR) *SSSP {
	return &SSSP{G: g, Source: g.MaxDegreeVertex()}
}

// Name implements Workload.
func (s *SSSP) Name() string {
	if s.Broadcast {
		return "SSSP-BC"
	}
	return "SSSP"
}

const inf = int32(1 << 30)

// Run implements Workload.
func (s *SSSP) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	g := s.G
	t := len(placement)
	parts := MakeParts(int(g.N), t)
	parts.AllocState(sys, "sssp.dist", 8, mem.SharedRW)
	adj := allocAdjacency(sys, "sssp", g, parts, true)
	ib := newInboxes(sys, "sssp", parts, ghostRecordBytes*uint64(parts.per))

	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[s.Source] = 0

	// Ghost aggregation: each sender keeps only the minimum tentative
	// distance per remote vertex per superstep, so the wire carries one
	// (vertex, distance) record per ghost rather than one per relaxed edge.
	touched := make([][][]int32, t)
	best := make([][]int32, t)
	stamp := make([][]int32, t)
	for i := range touched {
		touched[i] = make([][]int32, t)
		best[i] = make([]int32, g.N)
		stamp[i] = make([]int32, g.N)
	}
	frontier := make([][]int32, t)
	next := make([][]int32, t)
	active := make([]int, t)
	srcPart := parts.Of(int(s.Source))
	frontier[srcPart] = append(frontier[srcPart], s.Source)
	active[srcPart] = 1

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, _ := parts.Range(me)
		offBase := uint64(g.Offsets[lo])
		inNext := make(map[int32]bool)
		round := int32(0)
		for {
			round++
			localRelax := 0
			for _, v := range frontier[me] {
				deg := uint64(g.Degree(v))
				if deg > 0 {
					streamLoad(c, adj[me], (uint64(g.Offsets[v])-offBase)*adjEntryWeightedBytes, deg*adjEntryWeightedBytes)
				}
				c.Compute(deg*cyclesPerEdge + cyclesPerVertex)
				base := g.Offsets[v]
				for i, u := range g.Neighbors(v) {
					nd := dist[v] + g.Weights[base+int32(i)]
					q := parts.Of(int(u))
					if q == me {
						if nd < dist[u] {
							dist[u] = nd
							if !inNext[u] {
								inNext[u] = true
								next[me] = append(next[me], u)
							}
							localRelax++
						}
					} else {
						if stamp[me][u] != round {
							stamp[me][u] = round
							best[me][u] = nd
							touched[me][q] = append(touched[me][q], u)
						} else if nd < best[me][u] {
							best[me][u] = nd
						}
					}
				}
			}
			chargeScattered(c, parts, me, localRelax, true)
			if s.Broadcast {
				// Ship my relax set to every DIMM in one broadcast.
				var total uint64
				for q := 0; q < t; q++ {
					total += uint64(len(touched[me][q])) * ghostRecordBytes
				}
				if total > 0 {
					c.Broadcast(parts.Seg(me).Addr(0), uint32(clampU64(total, 1<<20)))
				}
			} else {
				for q := 0; q < t; q++ {
					if q != me {
						ib.send(c, me, q, uint64(len(touched[me][q]))*ghostRecordBytes)
					}
				}
			}
			c.Barrier()
			applied := 0
			for snd := 0; snd < t; snd++ {
				if snd == me {
					continue
				}
				ghosts := touched[snd][me]
				if !s.Broadcast {
					ib.recv(c, me, snd, uint64(len(ghosts))*ghostRecordBytes)
				} else if len(ghosts) > 0 {
					chargeScattered(c, parts, me, len(ghosts), false)
				}
				for _, u := range ghosts {
					if d := best[snd][u]; d < dist[u] {
						dist[u] = d
						if !inNext[u] {
							inNext[u] = true
							next[me] = append(next[me], u)
						}
						applied++
					}
				}
			}
			chargeScattered(c, parts, me, applied, true)
			active[me] = len(next[me])
			c.Barrier()
			total := 0
			for _, a := range active {
				total += a
			}
			frontier[me], next[me] = next[me], frontier[me][:0]
			for k := range inNext {
				delete(inNext, k)
			}
			for snd := 0; snd < t; snd++ {
				touched[snd][me] = touched[snd][me][:0]
			}
			c.Barrier()
			if total == 0 {
				return
			}
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, hashUint32s(dist), nil
}

func clampU64(v, max uint64) uint64 {
	if v > max {
		return max
	}
	return v
}

// ReferenceSSSP computes shortest paths serially (Dijkstra-free
// Bellman-Ford, matching the parallel kernel's semantics).
func ReferenceSSSP(g *CSR, source int32) []int32 {
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0
	frontier := []int32{source}
	for len(frontier) > 0 {
		var next []int32
		seen := map[int32]bool{}
		for _, v := range frontier {
			base := g.Offsets[v]
			for i, u := range g.Neighbors(v) {
				if nd := dist[v] + g.Weights[base+int32(i)]; nd < dist[u] {
					dist[u] = nd
					if !seen[u] {
						seen[u] = true
						next = append(next, u)
					}
				}
			}
		}
		frontier = next
	}
	return dist
}

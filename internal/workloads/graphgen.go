// Package workloads implements the paper's benchmark suite (Table IV):
// BFS, Hotspot, K-Means, Needleman-Wunsch, PageRank and SSSP, plus the
// broadcast variants (PR/SSSP/SpMV) of Figure 12, the TS.Pow
// synchronization workload of Figure 14, and the microbenchmarks behind
// Figure 1, Table I and Figure 14(a).
//
// Every workload really executes its algorithm on real data (results are
// checksummed and verified against reference implementations in tests)
// while reporting its memory accesses, compute phases and synchronization
// to the timing model through cores.Ctx. Inter-thread communication follows
// the bulk-synchronous message-passing style real DIMM-NMP deployments use:
// threads accumulate per-destination updates locally and exchange them as
// bulk transfers at superstep boundaries.
package workloads

import (
	"math/rand"
	"slices"
)

// CSR is a graph in compressed sparse row form.
type CSR struct {
	N       int32
	Offsets []int32 // len N+1
	Edges   []int32
	Weights []int32 // parallel to Edges (SSSP); nil for unweighted
}

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int32) int32 { return g.Offsets[v+1] - g.Offsets[v] }

// Neighbors returns the adjacency slice of v.
func (g *CSR) Neighbors(v int32) []int32 { return g.Edges[g.Offsets[v]:g.Offsets[v+1]] }

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() int { return len(g.Edges) }

// edge is one undirected (u, v) pair as a generator emits it.
type edge struct{ u, v int32 }

// buildCSR stores each of a generator's undirected edges in both
// directions, in CSR form ordered by (u, v): degree counts give Offsets,
// each row is filled in emission order and then sorted by v. Duplicate
// (u, v) pairs are indistinguishable, so the result equals sorting the
// whole directed edge list. Weights, uniform in [1, 64), are drawn from
// seed+1 in final edge order.
func buildCSR(n int32, edges []edge, seed int64) *CSR {
	g := &CSR{
		N:       n,
		Offsets: make([]int32, n+1),
		Edges:   make([]int32, 2*len(edges)),
		Weights: make([]int32, 2*len(edges)),
	}
	for _, e := range edges {
		g.Offsets[e.u+1]++
		g.Offsets[e.v+1]++
	}
	for v := int32(0); v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	next := slices.Clone(g.Offsets[:n])
	for _, e := range edges {
		g.Edges[next[e.u]] = e.v
		next[e.u]++
		g.Edges[next[e.v]] = e.u
		next[e.v]++
	}
	for v := int32(0); v < n; v++ {
		slices.Sort(g.Neighbors(v))
	}
	wrng := rand.New(rand.NewSource(seed + 1))
	for i := range g.Weights {
		g.Weights[i] = 1 + int32(wrng.Intn(63))
	}
	return g
}

// RMAT generates a deterministic R-MAT (Kronecker) graph with 2^scale
// vertices and edgeFactor*2^scale undirected edges (stored in both
// directions), using the Graph500 parameters a=0.57 b=0.19 c=0.19 d=0.05.
// This is the substitution for the LiveJournal input (DESIGN.md): the same
// skewed degree distribution and poor partition locality, at configurable
// scale. Self-loops are dropped; multi-edges are kept (they occur in the
// real dataset too). Weights are uniform in [1, 64) for SSSP.
func RMAT(scale, edgeFactor int, seed int64) *CSR {
	n := int32(1) << uint(scale)
	m := int(n) * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	// Shuffle vertex IDs (standard Graph500 practice): without it the
	// low-numbered hub vertices all land in partition 0 and load imbalance
	// drowns every other effect.
	perm := rng.Perm(int(n))
	edges := make([]edge, 0, m)
	for i := 0; i < m; i++ {
		var u, v int32
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < 0.57: // a: top-left
			case r < 0.76: // b: top-right
				v |= 1 << uint(bit)
			case r < 0.95: // c: bottom-left
				u |= 1 << uint(bit)
			default: // d: bottom-right
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		if u == v {
			continue
		}
		u, v = int32(perm[u]), int32(perm[v])
		edges = append(edges, edge{u, v})
	}
	return buildCSR(n, edges, seed)
}

// Community generates a modular graph of 2^scale vertices with edgeFactor
// undirected edges per vertex: vertices are grouped into blocks
// (communities), ~80% of edges stay inside the block, ~15% go to nearby
// blocks (geometric decay), and ~5% are global. This is the LiveJournal
// substitution for the evaluation workloads (DESIGN.md): real social graphs
// are strongly modular, which is what gives partitioned NMP executions
// their locality and gives the distance-aware task mapper something to
// exploit; the degree distribution is kept near-uniform so that load
// imbalance does not drown the IDC comparison.
func Community(scale, edgeFactor int, seed int64) *CSR {
	n := int32(1) << uint(scale)
	blocks := int32(64)
	if n < blocks*4 {
		blocks = n / 4
		if blocks == 0 {
			blocks = 1
		}
	}
	blockSize := n / blocks
	rng := rand.New(rand.NewSource(seed))
	m := int(n) * edgeFactor
	edges := make([]edge, 0, m)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(int(n)))
		ub := u / blockSize
		var vb int32
		switch r := rng.Float64(); {
		case r < 0.80:
			vb = ub
		case r < 0.95:
			// Nearby block, geometric distance, either direction.
			d := int32(1)
			for rng.Float64() < 0.5 && d < blocks/2 {
				d++
			}
			if rng.Intn(2) == 0 {
				d = -d
			}
			vb = (ub + d + blocks) % blocks
		default:
			vb = int32(rng.Intn(int(blocks)))
		}
		v := vb*blockSize + int32(rng.Intn(int(blockSize)))
		if u == v {
			continue
		}
		edges = append(edges, edge{u, v})
	}
	return buildCSR(n, edges, seed)
}

// MaxDegreeVertex returns the vertex with the largest degree — the
// canonical BFS/SSSP source (guaranteed to reach the giant component).
func (g *CSR) MaxDegreeVertex() int32 {
	best := int32(0)
	for v := int32(1); v < g.N; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

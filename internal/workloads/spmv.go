package workloads

import (
	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// SpMV computes y = A*x for a sparse matrix in CSR form, row-partitioned
// across threads. The dense vector x is partitioned the same way; before
// the multiply, each thread gathers the x-partitions its rows reference
// (remote bulk reads), or — in the Figure 12 broadcast formulation — every
// thread broadcasts its x-partition once and all gathers become local.
type SpMV struct {
	A         *CSR
	Iters     int
	Broadcast bool
}

// NewSpMVFromGraph builds SpMV over an existing sparsity pattern.
func NewSpMVFromGraph(g *CSR, iters int) *SpMV {
	return &SpMV{A: g, Iters: iters}
}

// Name implements Workload.
func (s *SpMV) Name() string {
	if s.Broadcast {
		return "SPMV-BC"
	}
	return "SPMV"
}

// Run implements Workload.
func (s *SpMV) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	a := s.A
	t := len(placement)
	parts := MakeParts(int(a.N), t)
	parts.AllocState(sys, "spmv.x", 8, mem.SharedRW)
	adj := allocAdjacency(sys, "spmv", a, parts, true)
	ySegs := MakeParts(int(a.N), t)
	ySegs.AllocState(sys, "spmv.y", 8, mem.Private)

	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = 1.0 + float64(i%7)
	}
	// Which x-partitions does each row partition reference?
	refs := make([][]bool, t)
	for me := 0; me < t; me++ {
		refs[me] = make([]bool, t)
		lo, hi := parts.Range(me)
		for v := lo; v < hi; v++ {
			for _, u := range a.Neighbors(int32(v)) {
				refs[me][parts.Of(int(u))] = true
			}
		}
	}

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := parts.Range(me)
		for iter := 0; iter < s.Iters; iter++ {
			if s.Broadcast {
				// Publish my x-partition to every DIMM once per iteration.
				c.Broadcast(parts.Seg(me).Addr(0), uint32(clampU64(uint64(parts.Size(me))*8, 1<<20)))
				c.Barrier()
				// All referenced partitions are now local copies: stream
				// them from the local broadcast buffer.
				for q := 0; q < t; q++ {
					if refs[me][q] {
						streamLoad(c, parts.Seg(me), 0, uint64(parts.Size(q))*8)
					}
				}
			} else {
				// Gather phase: bulk-read each referenced remote partition.
				for q := 0; q < t; q++ {
					if q == me || !refs[me][q] {
						continue
					}
					streamLoad(c, parts.Seg(q), 0, uint64(parts.Size(q))*8)
				}
				c.Barrier()
			}
			// Multiply my rows (all local now).
			edges := uint64(a.Offsets[hi] - a.Offsets[lo])
			streamLoad(c, adj[me], 0, edges*adjEntryWeightedBytes)
			c.Compute(edges*2 + uint64(hi-lo))
			for v := lo; v < hi; v++ {
				var sum float64
				base := a.Offsets[v]
				for i, u := range a.Neighbors(int32(v)) {
					sum += float64(a.Weights[base+int32(i)]) * x[u]
				}
				y[v] = sum
			}
			streamStore(c, ySegs.Seg(me), 0, uint64(hi-lo)*8)
			c.Barrier()
			// x <- normalized y for the next iteration (power-iteration
			// style), thread 0 publishes the swap.
			for v := lo; v < hi; v++ {
				x[v] = y[v] / 64.0
			}
			chargeScattered(c, parts, me, parts.Size(me), true)
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, hashFloats(y), nil
}

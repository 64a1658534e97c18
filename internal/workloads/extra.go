package workloads

import (
	"math/rand"

	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// The two extra kernels below come from the UPMEM PrIM-style suite the
// paper cites for real-hardware benchmarking [32]: GEMV (dense, streaming,
// NMP's best case) and Histogram (scatter-heavy with a shared reduction).
// They extend Table IV's coverage of access patterns.

// GEMV computes y = A*x for a dense RowsxCols matrix, row-banded across
// threads. x is replicated per DIMM at kernel start via broadcast (or
// gathered from its home DIMM when Broadcast is false).
type GEMV struct {
	Rows, Cols int
	Iters      int
	Broadcast  bool
	a          []float32 // row-major
	x          []float32
}

// NewGEMV builds a deterministic dense instance.
func NewGEMV(rows, cols, iters int, seed int64) *GEMV {
	rng := rand.New(rand.NewSource(seed))
	g := &GEMV{Rows: rows, Cols: cols, Iters: iters,
		a: make([]float32, rows*cols), x: make([]float32, cols)}
	for i := range g.a {
		g.a[i] = float32(rng.NormFloat64())
	}
	for i := range g.x {
		g.x[i] = float32(rng.NormFloat64())
	}
	return g
}

// Name implements Workload.
func (g *GEMV) Name() string { return "GEMV" }

// Run implements Workload.
func (g *GEMV) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	t := len(placement)
	rows := MakeParts(g.Rows, t)
	rowBytes := uint64(g.Cols) * 4
	rows.AllocState(sys, "gemv.a", rowBytes, mem.Private)
	yParts := MakeParts(g.Rows, t)
	yParts.AllocState(sys, "gemv.y", 4, mem.Private)
	// x lives on partition 0's DIMM; consumers broadcast or gather it.
	xSeg := sys.Space.MustAllocOn("gemv.x", uint64(g.Cols)*4, sys.PartitionDIMM(0), mem.SharedRW)

	y := make([]float32, g.Rows)
	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := rows.Range(me)
		for iter := 0; iter < g.Iters; iter++ {
			if g.Broadcast {
				if me == 0 {
					c.Broadcast(xSeg.Addr(0), uint32(clampU64(uint64(g.Cols)*4, 1<<20)))
				}
				c.Barrier()
			} else {
				// Gather x from its home DIMM (remote for most threads).
				c.LoadDep(xSeg.Addr(0), uint32(clampU64(uint64(g.Cols)*4, 1<<20)))
			}
			// Stream my rows and compute.
			streamLoad(c, rows.Seg(me), 0, uint64(hi-lo)*rowBytes)
			c.Compute(uint64(hi-lo) * uint64(g.Cols) * 2)
			for r := lo; r < hi; r++ {
				var sum float32
				base := r * g.Cols
				for j := 0; j < g.Cols; j++ {
					sum += g.a[base+j] * g.x[j]
				}
				y[r] = sum
			}
			streamStore(c, yParts.Seg(me), 0, uint64(hi-lo)*4)
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	flat := make([]float64, 0, g.Rows)
	for _, v := range y {
		flat = append(flat, float64(v))
	}
	return res, hashFloats(flat), nil
}

// Histogram bins a partitioned input stream: each thread scans its local
// chunk (streaming), scatters counts into a private bin array
// (line-granularity random updates — the pattern NMP accelerates), then
// pushes its partial histogram to the owner for reduction.
type Histogram struct {
	Input []uint32
	Bins  int
}

// NewHistogram builds a deterministic skewed input of n samples.
func NewHistogram(n, bins int, seed int64) *Histogram {
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint32, n)
	for i := range in {
		// Zipf-ish skew: squares concentrate low bins.
		v := rng.Float64()
		in[i] = uint32(v * v * float64(bins))
	}
	return &Histogram{Input: in, Bins: bins}
}

// Name implements Workload.
func (h *Histogram) Name() string { return "HISTO" }

// Run implements Workload.
func (h *Histogram) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	t := len(placement)
	parts := MakeParts(len(h.Input), t)
	parts.AllocState(sys, "histo.in", 4, mem.Private)
	bins := MakeParts(h.Bins*t, t) // per-thread private bin arrays
	bins.AllocState(sys, "histo.bins", 8, mem.Private)
	// One partial-histogram slot per thread at the reduction owner.
	resultSeg := sys.Space.MustAllocOn("histo.result", uint64(h.Bins)*8*uint64(t), sys.PartitionDIMM(0), mem.SharedRW)

	partial := make([][]uint64, t)
	for i := range partial {
		partial[i] = make([]uint64, h.Bins)
	}
	final := make([]uint64, h.Bins)

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := parts.Range(me)
		// Stream the input chunk; scatter into the private bins.
		streamLoad(c, parts.Seg(me), 0, uint64(hi-lo)*4)
		c.Compute(uint64(hi-lo) * 2)
		for i := lo; i < hi; i++ {
			partial[me][h.Input[i]]++
		}
		c.ScatterStore(bins.Seg(me).Addr(0), bins.Seg(me).Size, uint32(hi-lo))
		// Push the partial histogram to the reduction owner's slot.
		streamStore(c, resultSeg, uint64(me)*uint64(h.Bins)*8, uint64(h.Bins)*8)
		c.Barrier()
		if me == 0 {
			streamLoad(c, resultSeg, 0, uint64(h.Bins)*8*uint64(t))
			c.Compute(uint64(t) * uint64(h.Bins))
			for s := 0; s < t; s++ {
				for b := 0; b < h.Bins; b++ {
					final[b] += partial[s][b]
				}
			}
		}
		c.Barrier()
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	vals := make([]int32, h.Bins)
	for i, v := range final {
		vals[i] = int32(v)
	}
	return res, hashUint32s(vals), nil
}

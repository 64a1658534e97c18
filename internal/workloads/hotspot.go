package workloads

import (
	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// Hotspot is the Rodinia-style 2D thermal stencil: each iteration computes
// every cell from its 4-neighborhood and the power map. The grid is
// row-banded across threads; each iteration a thread streams its own band
// (local) and the single boundary row of each neighboring band (remote when
// the neighbor band lives on another DIMM).
type Hotspot struct {
	Rows, Cols int
	Iters      int
}

// NewHotspot builds a grid of the given shape.
func NewHotspot(rows, cols, iters int) *Hotspot {
	return &Hotspot{Rows: rows, Cols: cols, Iters: iters}
}

// Name implements Workload.
func (h *Hotspot) Name() string { return "HS" }

// stencil computes one cell update (the Rodinia coefficients reduced to a
// symmetric diffusion with a heat source term).
func stencil(up, down, left, right, center, power float32) float32 {
	return center + 0.2*(up+down+left+right-4*center) + 0.05*power
}

// Run implements Workload.
func (h *Hotspot) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	t := len(placement)
	parts := MakeParts(h.Rows, t) // row bands
	rowBytes := uint64(h.Cols) * 4
	// Two state buffers per band (ping-pong), plus the power map.
	var cur, nxt Parts
	cur = parts
	cur.AllocState(sys, "hs.cur", rowBytes, mem.SharedRW)
	nxt = parts
	nxt.AllocState(sys, "hs.nxt", rowBytes, mem.SharedRW)
	pow := parts
	pow.AllocState(sys, "hs.pow", rowBytes, mem.Private)

	grid := make([]float32, h.Rows*h.Cols)
	next := make([]float32, h.Rows*h.Cols)
	power := make([]float32, h.Rows*h.Cols)
	for i := range grid {
		grid[i] = 300 // ambient
		power[i] = float32((i*2654435761)%97) / 97.0
	}
	at := func(r, c int) int { return r*h.Cols + c }

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := parts.Range(me)
		for iter := 0; iter < h.Iters; iter++ {
			// Boundary rows from neighboring bands (remote when the bands
			// live on other DIMMs). Dependent reads: the stencil needs them
			// before computing the band edge.
			if lo > 0 {
				nb := parts.Of(lo - 1)
				nlo, _ := parts.Range(nb)
				c.LoadDep(cur.Seg(nb).Addr(uint64(lo-1-nlo)*rowBytes), uint32(clampU64(rowBytes, 1<<20)))
			}
			if hi < h.Rows {
				nb := parts.Of(hi)
				nlo, _ := parts.Range(nb)
				c.LoadDep(cur.Seg(nb).Addr(uint64(hi-nlo)*rowBytes), uint32(clampU64(rowBytes, 1<<20)))
			}
			// Stream my band: current temperatures and power in, next out.
			bandBytes := uint64(hi-lo) * rowBytes
			streamLoad(c, cur.Seg(me), 0, bandBytes)
			streamLoad(c, pow.Seg(me), 0, bandBytes)
			c.Compute(uint64((hi-lo)*h.Cols) * 6)
			for r := lo; r < hi; r++ {
				for col := 0; col < h.Cols; col++ {
					up, down, left, right := grid[at(r, col)], grid[at(r, col)], grid[at(r, col)], grid[at(r, col)]
					if r > 0 {
						up = grid[at(r-1, col)]
					}
					if r < h.Rows-1 {
						down = grid[at(r+1, col)]
					}
					if col > 0 {
						left = grid[at(r, col-1)]
					}
					if col < h.Cols-1 {
						right = grid[at(r, col+1)]
					}
					next[at(r, col)] = stencil(up, down, left, right, grid[at(r, col)], power[at(r, col)])
				}
			}
			streamStore(c, nxt.Seg(me), 0, bandBytes)
			c.Barrier()
			// Swap the shared ping-pong buffers exactly once per iteration
			// (thread 0, between the two barriers, so every thread sees the
			// swapped views next iteration).
			if me == 0 {
				grid, next = next, grid
				cur, nxt = nxt, cur
			}
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	sum := make([]float64, 0, h.Rows)
	for r := 0; r < h.Rows; r++ {
		var s float64
		for col := 0; col < h.Cols; col++ {
			s += float64(grid[at(r, col)])
		}
		sum = append(sum, s)
	}
	return res, hashFloats(sum), nil
}

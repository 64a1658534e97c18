package workloads

import (
	"math/rand"

	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// TSPow is the SynCron-style time-series workload of Figure 14(b): threads
// scan a partitioned series computing sliding-window power statistics and
// synchronize after every chunk to publish running extrema — a
// synchronization-intensive pattern whose performance tracks barrier cost.
type TSPow struct {
	Series    []float32
	Window    int
	ChunkSize int // elements processed between synchronization episodes
}

// NewTSPow builds a deterministic series of n samples.
func NewTSPow(n, window, chunk int, seed int64) *TSPow {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64()) + float32(i%100)/100.0
	}
	return &TSPow{Series: s, Window: window, ChunkSize: chunk}
}

// Name implements Workload.
func (ts *TSPow) Name() string { return "TS.Pow" }

// Run implements Workload.
func (ts *TSPow) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	n := len(ts.Series)
	t := len(placement)
	parts := MakeParts(n, t)
	parts.AllocState(sys, "ts.series", 4, mem.Private)
	// The global running maximum lives on partition 0's DIMM and every
	// thread updates it after each chunk (the shared lock-protected
	// aggregate of SynCron's formulation).
	maxSeg := sys.Space.MustAllocOn("ts.max", 64, sys.PartitionDIMM(0), mem.SharedRW)

	type maxEntry struct {
		power float64
		idx   int
	}
	globalMax := maxEntry{power: -1}

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := parts.Range(me)
		for base := lo; base < hi; base += ts.ChunkSize {
			end := base + ts.ChunkSize
			if end > hi {
				end = hi
			}
			// Stream the chunk and compute windowed power.
			streamLoad(c, parts.Seg(me), uint64(base-lo)*4, uint64(end-base)*4)
			c.Compute(uint64(end-base) * uint64(ts.Window) / 4 * 3)
			localBest := maxEntry{power: -1}
			var acc float64
			for i := base; i < end; i++ {
				v := float64(ts.Series[i])
				acc += v * v
				if i-base >= ts.Window {
					w := float64(ts.Series[i-ts.Window])
					acc -= w * w
				}
				if acc > localBest.power {
					localBest = maxEntry{power: acc, idx: i}
				}
			}
			// Publish to the shared aggregate: read-modify-write of the
			// global maximum (remote for most threads), then synchronize.
			c.LoadDep(maxSeg.Addr(0), 16)
			if localBest.power > globalMax.power ||
				(localBest.power == globalMax.power && localBest.idx < globalMax.idx) {
				globalMax = localBest
			}
			c.Store(maxSeg.Addr(0), 16)
			c.Barrier()
		}
		// Threads with fewer chunks must keep participating in barriers:
		// pad to the global chunk count.
		myChunks := (hi - lo + ts.ChunkSize - 1) / ts.ChunkSize
		maxChunks := (parts.per + ts.ChunkSize - 1) / ts.ChunkSize
		for i := myChunks; i < maxChunks; i++ {
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, uint64(globalMax.idx), nil
}

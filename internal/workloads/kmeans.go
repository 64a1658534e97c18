package workloads

import (
	"math/rand"

	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// KMeans is Lloyd's algorithm: points are partitioned across threads
// (local, streaming), the centroid table is owned by thread 0's DIMM.
// Every iteration each thread pulls the centroids (remote for most
// threads), assigns its points, and pushes partial sums back to the owner,
// which reduces them. This read-mostly shared table is why K-Means shows
// strong scaling under DIMM-Link (Section V-C).
type KMeans struct {
	Points [][]float32 // n x dims
	K      int
	Iters  int
}

// NewKMeans builds a deterministic clustered dataset.
func NewKMeans(n, dims, k, iters int, seed int64) *KMeans {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float32, n)
	for i := range pts {
		center := i % k
		pts[i] = make([]float32, dims)
		for d := range pts[i] {
			pts[i][d] = float32(center*10) + float32(rng.NormFloat64())
		}
	}
	return &KMeans{Points: pts, K: k, Iters: iters}
}

// Name implements Workload.
func (k *KMeans) Name() string { return "KM" }

// Run implements Workload.
func (k *KMeans) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	n := len(k.Points)
	dims := len(k.Points[0])
	t := len(placement)
	parts := MakeParts(n, t)
	ptBytes := uint64(dims) * 4
	parts.AllocState(sys, "km.points", ptBytes, mem.Private)
	centBytes := uint64(k.K) * ptBytes
	// Centroid table and the partial-sum drop boxes live on partition 0's
	// DIMM (the reduction owner).
	centSeg := sys.Space.MustAllocOn("km.centroids", centBytes, sys.PartitionDIMM(0), mem.SharedRW)
	partialSeg := sys.Space.MustAllocOn("km.partials", (centBytes+uint64(k.K)*8)*uint64(t),
		sys.PartitionDIMM(0), mem.SharedRW)

	centroids := make([][]float64, k.K)
	for i := range centroids {
		centroids[i] = make([]float64, dims)
		for d := range centroids[i] {
			centroids[i][d] = float64(k.Points[i][d]) // first K points seed
		}
	}
	assign := make([]int32, n)
	// partialSum[t][k][d], partialCnt[t][k]
	pSum := make([][][]float64, t)
	pCnt := make([][]int64, t)
	for i := range pSum {
		pSum[i] = make([][]float64, k.K)
		for j := range pSum[i] {
			pSum[i][j] = make([]float64, dims)
		}
		pCnt[i] = make([]int64, k.K)
	}

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := parts.Range(me)
		for iter := 0; iter < k.Iters; iter++ {
			// Pull the centroid table (remote for every thread not on the
			// owner DIMM); the assignment loop depends on it.
			c.LoadDep(centSeg.Addr(0), uint32(clampU64(centBytes, 1<<20)))
			// Stream my points and assign.
			streamLoad(c, parts.Seg(me), 0, uint64(hi-lo)*ptBytes)
			c.Compute(uint64(hi-lo) * uint64(k.K) * uint64(dims) * 3)
			for i := range pSum[me] {
				for d := range pSum[me][i] {
					pSum[me][i][d] = 0
				}
				pCnt[me][i] = 0
			}
			for p := lo; p < hi; p++ {
				best, bestDist := int32(0), float64(1e30)
				for ci := 0; ci < k.K; ci++ {
					var dist float64
					for d := 0; d < dims; d++ {
						diff := float64(k.Points[p][d]) - centroids[ci][d]
						dist += diff * diff
					}
					if dist < bestDist {
						best, bestDist = int32(ci), dist
					}
				}
				assign[p] = best
				for d := 0; d < dims; d++ {
					pSum[me][best][d] += float64(k.Points[p][d])
				}
				pCnt[me][best]++
			}
			// Push my partial sums to the owner (remote bulk write).
			streamStore(c, partialSeg, uint64(me)*(centBytes+uint64(k.K)*8), centBytes+uint64(k.K)*8)
			c.Barrier()
			// Thread 0 reduces and rewrites the centroid table (local).
			if me == 0 {
				streamLoad(c, partialSeg, 0, (centBytes+uint64(k.K)*8)*uint64(t))
				c.Compute(uint64(t) * uint64(k.K) * uint64(dims) * 2)
				for ci := 0; ci < k.K; ci++ {
					var cnt int64
					sum := make([]float64, dims)
					for th := 0; th < t; th++ {
						cnt += pCnt[th][ci]
						for d := 0; d < dims; d++ {
							sum[d] += pSum[th][ci][d]
						}
					}
					if cnt > 0 {
						for d := 0; d < dims; d++ {
							centroids[ci][d] = sum[d] / float64(cnt)
						}
					}
				}
				streamStore(c, centSeg, 0, centBytes)
			}
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	flat := make([]float64, 0, k.K*dims)
	for _, cvec := range centroids {
		flat = append(flat, cvec...)
	}
	return res, hashFloats(flat), nil
}

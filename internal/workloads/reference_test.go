package workloads

// Serial reference implementations of the workloads, one per kernel. Each
// computes the same result as the simulated kernel with plain Go loops, so
// the tests can check that a simulated run produced the right answer.

// ReferenceBFS computes BFS levels sequentially, for test verification.
func ReferenceBFS(g *CSR, source int32) []int32 {
	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []int32{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if level[u] == -1 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
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

// ReferencePageRank computes the same fixed-iteration PageRank serially.
func ReferencePageRank(g *CSR, iters int) []float64 {
	rank := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1.0 / float64(g.N)
	}
	for it := 0; it < iters; it++ {
		sums := make([]float64, g.N)
		for v := int32(0); v < g.N; v++ {
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			share := rank[v] / float64(deg)
			for _, u := range g.Neighbors(v) {
				sums[u] += share
			}
		}
		for v := range rank {
			rank[v] = (1-damping)/float64(g.N) + damping*sums[v]
		}
	}
	return rank
}

// ReferenceSpMV runs the same iterated multiply serially.
func ReferenceSpMV(a *CSR, iters int) []float64 {
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = 1.0 + float64(i%7)
	}
	for it := 0; it < iters; it++ {
		for v := int32(0); v < a.N; v++ {
			var sum float64
			base := a.Offsets[v]
			for i, u := range a.Neighbors(v) {
				sum += float64(a.Weights[base+int32(i)]) * x[u]
			}
			y[v] = sum
		}
		for v := range x {
			x[v] = y[v] / 64.0
		}
	}
	return y
}

// ReferenceKMeans runs the same Lloyd iterations serially and returns the
// final centroids.
func ReferenceKMeans(points [][]float32, kk, iters int) [][]float64 {
	dims := len(points[0])
	centroids := make([][]float64, kk)
	for i := range centroids {
		centroids[i] = make([]float64, dims)
		for d := range centroids[i] {
			centroids[i][d] = float64(points[i][d])
		}
	}
	for it := 0; it < iters; it++ {
		sums := make([][]float64, kk)
		cnts := make([]int64, kk)
		for i := range sums {
			sums[i] = make([]float64, dims)
		}
		for _, p := range points {
			best, bestDist := 0, 1e30
			for ci := 0; ci < kk; ci++ {
				var dist float64
				for d := 0; d < dims; d++ {
					diff := float64(p[d]) - centroids[ci][d]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = ci, dist
				}
			}
			cnts[best]++
			for d := 0; d < dims; d++ {
				sums[best][d] += float64(p[d])
			}
		}
		for ci := 0; ci < kk; ci++ {
			if cnts[ci] > 0 {
				for d := 0; d < dims; d++ {
					centroids[ci][d] = sums[ci][d] / float64(cnts[ci])
				}
			}
		}
	}
	return centroids
}

// ReferenceHotspot runs the same stencil serially.
func ReferenceHotspot(rows, cols, iters int) []float32 {
	grid := make([]float32, rows*cols)
	next := make([]float32, rows*cols)
	power := make([]float32, rows*cols)
	for i := range grid {
		grid[i] = 300
		power[i] = float32((i*2654435761)%97) / 97.0
	}
	at := func(r, c int) int { return r*cols + c }
	for it := 0; it < iters; it++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				up, down, left, right := grid[at(r, c)], grid[at(r, c)], grid[at(r, c)], grid[at(r, c)]
				if r > 0 {
					up = grid[at(r-1, c)]
				}
				if r < rows-1 {
					down = grid[at(r+1, c)]
				}
				if c > 0 {
					left = grid[at(r, c-1)]
				}
				if c < cols-1 {
					right = grid[at(r, c+1)]
				}
				next[at(r, c)] = stencil(up, down, left, right, grid[at(r, c)], power[at(r, c)])
			}
		}
		grid, next = next, grid
	}
	return grid
}

// ReferenceTSPow computes the global maximum windowed power serially with
// the same per-chunk window reset semantics as the parallel kernel.
func ReferenceTSPow(series []float32, window, chunk int, nThreads int) int {
	n := len(series)
	parts := MakeParts(n, nThreads)
	bestPower := -1.0
	bestIdx := 0
	for me := 0; me < nThreads; me++ {
		lo, hi := parts.Range(me)
		for base := lo; base < hi; base += chunk {
			end := base + chunk
			if end > hi {
				end = hi
			}
			var acc float64
			for i := base; i < end; i++ {
				v := float64(series[i])
				acc += v * v
				if i-base >= window {
					w := float64(series[i-window])
					acc -= w * w
				}
				if acc > bestPower || (acc == bestPower && i < bestIdx) {
					bestPower = acc
					bestIdx = i
				}
			}
		}
	}
	return bestIdx
}

// ReferenceTrain runs the same quantized training serially and returns the
// final weights; any sharded run must reach the identical model.
func ReferenceTrain(tr *Train) []float64 {
	w := make([]float64, tr.Params)
	total := make([]int64, tr.Params)
	for step := 0; step < tr.Steps; step++ {
		for i := range total {
			total[i] = 0
		}
		for s := 0; s < tr.Samples; s++ {
			pred := 0.0
			base := s * tr.K
			for j := 0; j < tr.K; j++ {
				pred += w[tr.featIdx[base+j]] * tr.featVal[base+j]
			}
			err := pred - tr.label[s]
			for j := 0; j < tr.K; j++ {
				total[tr.featIdx[base+j]] += int64(err * tr.featVal[base+j] * gradScale)
			}
		}
		inv := trainLR / (gradScale * float64(tr.Samples))
		for i := range w {
			w[i] -= float64(total[i]) * inv
		}
	}
	return w
}

// ReferenceGEMV computes y = A*x serially.
func ReferenceGEMV(g *GEMV) []float32 {
	y := make([]float32, g.Rows)
	for r := 0; r < g.Rows; r++ {
		var sum float32
		for j := 0; j < g.Cols; j++ {
			sum += g.a[r*g.Cols+j] * g.x[j]
		}
		y[r] = sum
	}
	return y
}

// ReferenceHistogram bins the input serially.
func ReferenceHistogram(h *Histogram) []uint64 {
	out := make([]uint64, h.Bins)
	for _, v := range h.Input {
		out[v]++
	}
	return out
}

package workloads

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortedRMAT and sortedCommunity are the reference generators: the same
// (u, v) emission as RMAT and Community, then one sort.Slice over the
// whole directed edge list and a sequential CSR fill. buildCSR must
// reproduce them exactly.
func sortedRMAT(scale, edgeFactor int, seed int64) *CSR {
	n := int32(1) << uint(scale)
	m := int(n) * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	// Shuffle vertex IDs (standard Graph500 practice): without it the
	// low-numbered hub vertices all land in partition 0 and load imbalance
	// drowns every other effect.
	perm := rng.Perm(int(n))
	type edge struct{ u, v int32 }
	edges := make([]edge, 0, 2*m)
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
		edges = append(edges, edge{u, v}, edge{v, u})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	g := &CSR{
		N:       n,
		Offsets: make([]int32, n+1),
		Edges:   make([]int32, len(edges)),
		Weights: make([]int32, len(edges)),
	}
	wrng := rand.New(rand.NewSource(seed + 1))
	for i, e := range edges {
		g.Offsets[e.u+1]++
		g.Edges[i] = e.v
		g.Weights[i] = 1 + int32(wrng.Intn(63))
	}
	for v := int32(0); v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}
func sortedCommunity(scale, edgeFactor int, seed int64) *CSR {
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
	type edge struct{ u, v int32 }
	m := int(n) * edgeFactor
	edges := make([]edge, 0, 2*m)
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
		edges = append(edges, edge{u, v}, edge{v, u})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	g := &CSR{
		N:       n,
		Offsets: make([]int32, n+1),
		Edges:   make([]int32, len(edges)),
		Weights: make([]int32, len(edges)),
	}
	wrng := rand.New(rand.NewSource(seed + 1))
	for i, e := range edges {
		g.Offsets[e.u+1]++
		g.Edges[i] = e.v
		g.Weights[i] = 1 + int32(wrng.Intn(63))
	}
	for v := int32(0); v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}

// hasMultiEdge reports whether some (u, v) pair occurs more than once.
func hasMultiEdge(g *CSR) bool {
	for v := int32(0); v < g.N; v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				return true
			}
		}
	}
	return false
}

func TestBuildCSRMatchesSortedReference(t *testing.T) {
	gens := []struct {
		name      string
		got, want func(scale, edgeFactor int, seed int64) *CSR
	}{
		{"RMAT", RMAT, sortedRMAT},
		{"Community", Community, sortedCommunity},
	}
	multi := false
	for _, gen := range gens {
		for _, scale := range []int{0, 1, 4, 8, 12} {
			for _, ef := range []int{1, 8} {
				for _, seed := range []int64{1, 7, 42} {
					got, want := gen.got(scale, ef, seed), gen.want(scale, ef, seed)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s(%d, %d, %d) differs from the sorted reference", gen.name, scale, ef, seed)
					}
					multi = multi || hasMultiEdge(got)
				}
			}
		}
	}
	// Small dense graphs (scale 4, edge factor 8) repeat pairs: the grid
	// must cover rows whose sort has to keep duplicates.
	if !multi {
		t.Fatal("no case in the grid has a multi-edge")
	}
}

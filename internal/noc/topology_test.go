package noc

import (
	"testing"
	"testing/quick"
)

func allTopologies() []Topology {
	return []Topology{
		NewChain(8),
		NewRing(8),
		NewMesh(4, 2),
		NewTorus(4, 2),
		NewChain(1),
		NewRing(3),
		NewMesh(3, 3),
		NewTorus(4, 4),
	}
}

func TestRouteEndpointsAndAdjacency(t *testing.T) {
	for _, topo := range allTopologies() {
		n := topo.Nodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				path := topo.Route(s, d)
				if path[0] != s || path[len(path)-1] != d {
					t.Fatalf("%s: route %d->%d has wrong endpoints %v", topo.Name(), s, d, path)
				}
				for i := 0; i+1 < len(path); i++ {
					adjacent := false
					for _, nb := range topo.Neighbors(path[i]) {
						if nb == path[i+1] {
							adjacent = true
						}
					}
					if !adjacent {
						t.Fatalf("%s: route %d->%d uses non-edge %d->%d", topo.Name(), s, d, path[i], path[i+1])
					}
				}
			}
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	for _, topo := range allTopologies() {
		for u := 0; u < topo.Nodes(); u++ {
			for _, v := range topo.Neighbors(u) {
				back := false
				for _, w := range topo.Neighbors(v) {
					if w == u {
						back = true
					}
				}
				if !back {
					t.Fatalf("%s: link %d->%d not symmetric", topo.Name(), u, v)
				}
			}
		}
	}
}

func TestDiameters(t *testing.T) {
	cases := []struct {
		topo Topology
		want int
	}{
		{NewChain(8), 7},
		{NewRing(8), 4},
		{NewMesh(4, 2), 4},
		{NewTorus(4, 2), 3},
		{NewChain(1), 0},
	}
	for _, c := range cases {
		if got := Diameter(c.topo); got != c.want {
			t.Errorf("%s diameter = %d, want %d", c.topo.Name(), got, c.want)
		}
	}
}

func TestTopologyOrderingByAvgHops(t *testing.T) {
	// The paper's Section VI ranking comes from shrinking average distance:
	// chain > ring > mesh >= torus for 8 nodes.
	chain := AvgHops(NewChain(8))
	ring := AvgHops(NewRing(8))
	mesh := AvgHops(NewMesh(4, 2))
	torus := AvgHops(NewTorus(4, 2))
	if !(chain > ring && ring > mesh && mesh >= torus) {
		t.Fatalf("avg hops ordering wrong: chain=%v ring=%v mesh=%v torus=%v", chain, ring, mesh, torus)
	}
}

func TestRingRouteTakesShortestDirection(t *testing.T) {
	r := NewRing(8)
	if len(r.Route(0, 3))-1 != 3 {
		t.Fatal("ring 0->3 not 3 hops")
	}
	if len(r.Route(0, 6))-1 != 2 {
		t.Fatal("ring 0->6 should wrap in 2 hops")
	}
}

func TestRouteMinimalProperty(t *testing.T) {
	// Property: route length equals BFS distance (routes are minimal).
	bfsDist := func(topo Topology, src, dst int) int {
		dist := make([]int, topo.Nodes())
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		q := []int{src}
		for len(q) > 0 {
			n := q[0]
			q = q[1:]
			for _, nb := range topo.Neighbors(n) {
				if dist[nb] == -1 {
					dist[nb] = dist[n] + 1
					q = append(q, nb)
				}
			}
		}
		return dist[dst]
	}
	f := func(rawS, rawD uint8) bool {
		for _, topo := range allTopologies() {
			s := int(rawS) % topo.Nodes()
			d := int(rawD) % topo.Nodes()
			if len(topo.Route(s, d))-1 != bfsDist(topo, s, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningTree(t *testing.T) {
	for _, topo := range allTopologies() {
		for src := 0; src < topo.Nodes(); src++ {
			parent := bfsTree(topo, src, nil)
			if parent[src] != -1 {
				t.Fatalf("%s: root parent = %d", topo.Name(), parent[src])
			}
			for n := 0; n < topo.Nodes(); n++ {
				if n == src {
					continue
				}
				if parent[n] == -2 {
					t.Fatalf("%s: node %d unreachable from %d", topo.Name(), n, src)
				}
				// Walk to the root; must terminate and use edges.
				steps := 0
				for cur := n; cur != src; cur = parent[cur] {
					steps++
					if steps > topo.Nodes() {
						t.Fatalf("%s: cycle in spanning tree", topo.Name())
					}
				}
			}
		}
	}
}

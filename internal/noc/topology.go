// Package noc is the packet network substrate under DIMM-Link (the BookSim
// substitute, see DESIGN.md). It models unidirectional links with
// serialization delay, router pipeline latency, and credit-based flow
// control, over the topologies the paper evaluates: the practical half-ring
// Chain of adjacent DIMMs (the DIMM-Link prototype), and the Ring, Mesh and
// Torus alternatives of Section VI.
package noc

import (
	"fmt"
	"sort"
)

// Topology enumerates nodes and computes routes. Nodes are numbered
// 0..Nodes()-1; for DIMM-Link these are the DIMMs of one DL group in
// physical slot order.
type Topology interface {
	// Nodes returns the node count.
	Nodes() int
	// Neighbors returns the nodes with a direct link from n, in
	// deterministic order.
	Neighbors(n int) []int
	// Route returns the full path from src to dst, inclusive of both.
	// Routing is deterministic and minimal.
	Route(src, dst int) []int
	// Name identifies the topology in reports.
	Name() string
}

// Diameter returns the maximum hop count between any node pair.
func Diameter(t Topology) int {
	d := 0
	for s := 0; s < t.Nodes(); s++ {
		for e := 0; e < t.Nodes(); e++ {
			if h := len(t.Route(s, e)) - 1; h > d {
				d = h
			}
		}
	}
	return d
}

// AvgHops returns the mean hop count over all ordered pairs of distinct
// nodes.
func AvgHops(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	total := 0
	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			if s != e {
				total += len(t.Route(s, e)) - 1
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}

// Chain is the paper's baseline half-ring: node i links to i-1 and i+1.
// This is what a DL-Bridge over adjacent DIMM slots physically provides.
type Chain struct{ N int }

// NewChain builds a linear chain of n nodes.
func NewChain(n int) Chain {
	if n <= 0 {
		panic(fmt.Sprintf("noc: chain with %d nodes", n))
	}
	return Chain{N: n}
}

func (c Chain) Nodes() int   { return c.N }
func (c Chain) Name() string { return "chain" }

func (c Chain) Neighbors(n int) []int {
	var nb []int
	if n > 0 {
		nb = append(nb, n-1)
	}
	if n < c.N-1 {
		nb = append(nb, n+1)
	}
	return nb
}

func (c Chain) Route(src, dst int) []int {
	checkNodes(c, src, dst)
	path := []int{src}
	step := 1
	if dst < src {
		step = -1
	}
	for n := src; n != dst; {
		n += step
		path = append(path, n)
	}
	return path
}

// Ring closes the chain: node i also links N-1 <-> 0. Packets take the
// shorter direction (ties go clockwise).
type Ring struct{ N int }

// NewRing builds a ring of n nodes (n >= 3 for a true ring).
func NewRing(n int) Ring {
	if n <= 0 {
		panic(fmt.Sprintf("noc: ring with %d nodes", n))
	}
	return Ring{N: n}
}

func (r Ring) Nodes() int   { return r.N }
func (r Ring) Name() string { return "ring" }

func (r Ring) Neighbors(n int) []int {
	if r.N == 1 {
		return nil
	}
	if r.N == 2 {
		return []int{1 - n}
	}
	return []int{(n - 1 + r.N) % r.N, (n + 1) % r.N}
}

func (r Ring) Route(src, dst int) []int {
	checkNodes(r, src, dst)
	path := []int{src}
	if src == dst {
		return path
	}
	cw := (dst - src + r.N) % r.N  // clockwise distance
	ccw := (src - dst + r.N) % r.N // counter-clockwise distance
	step := 1
	if ccw < cw {
		step = -1
	}
	for n := src; n != dst; {
		n = (n + step + r.N) % r.N
		path = append(path, n)
	}
	return path
}

// Mesh is a W x H grid with XY dimension-order routing. Node n sits at
// (n % W, n / W).
type Mesh struct{ W, H int }

// NewMesh builds a w x h mesh.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: mesh %dx%d", w, h))
	}
	return Mesh{W: w, H: h}
}

func (m Mesh) Nodes() int   { return m.W * m.H }
func (m Mesh) Name() string { return "mesh" }

func (m Mesh) coord(n int) (x, y int) { return n % m.W, n / m.W }
func (m Mesh) node(x, y int) int      { return y*m.W + x }

func (m Mesh) Neighbors(n int) []int {
	x, y := m.coord(n)
	var nb []int
	if x > 0 {
		nb = append(nb, m.node(x-1, y))
	}
	if x < m.W-1 {
		nb = append(nb, m.node(x+1, y))
	}
	if y > 0 {
		nb = append(nb, m.node(x, y-1))
	}
	if y < m.H-1 {
		nb = append(nb, m.node(x, y+1))
	}
	sort.Ints(nb)
	return nb
}

func (m Mesh) Route(src, dst int) []int {
	checkNodes(m, src, dst)
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	path := []int{src}
	for x != dx { // X first
		if dx > x {
			x++
		} else {
			x--
		}
		path = append(path, m.node(x, y))
	}
	for y != dy {
		if dy > y {
			y++
		} else {
			y--
		}
		path = append(path, m.node(x, y))
	}
	return path
}

// Torus is a mesh with wrap-around links in both dimensions, XY routing
// taking the shorter direction per dimension.
type Torus struct{ W, H int }

// NewTorus builds a w x h torus.
func NewTorus(w, h int) Torus {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: torus %dx%d", w, h))
	}
	return Torus{W: w, H: h}
}

func (t Torus) Nodes() int   { return t.W * t.H }
func (t Torus) Name() string { return "torus" }

func (t Torus) coord(n int) (x, y int) { return n % t.W, n / t.W }
func (t Torus) node(x, y int) int      { return y*t.W + x }

func (t Torus) Neighbors(n int) []int {
	x, y := t.coord(n)
	set := map[int]bool{}
	if t.W > 1 {
		set[t.node((x+1)%t.W, y)] = true
		set[t.node((x-1+t.W)%t.W, y)] = true
	}
	if t.H > 1 {
		set[t.node(x, (y+1)%t.H)] = true
		set[t.node(x, (y-1+t.H)%t.H)] = true
	}
	delete(set, n)
	nb := make([]int, 0, len(set))
	for k := range set {
		nb = append(nb, k)
	}
	sort.Ints(nb)
	return nb
}

func (t Torus) Route(src, dst int) []int {
	checkNodes(t, src, dst)
	x, y := t.coord(src)
	dx, dy := t.coord(dst)
	path := []int{src}
	stepTo := func(cur, want, size int) int {
		fwd := (want - cur + size) % size
		bwd := (cur - want + size) % size
		if fwd <= bwd {
			return (cur + 1) % size
		}
		return (cur - 1 + size) % size
	}
	for x != dx {
		x = stepTo(x, dx, t.W)
		path = append(path, t.node(x, y))
	}
	for y != dy {
		y = stepTo(y, dy, t.H)
		path = append(path, t.node(x, y))
	}
	return path
}

func checkNodes(t Topology, src, dst int) {
	if src < 0 || src >= t.Nodes() || dst < 0 || dst >= t.Nodes() {
		panic(fmt.Sprintf("noc: route %d->%d outside %d nodes", src, dst, t.Nodes()))
	}
}

// bfsTree returns, for each node, its parent in the BFS tree rooted at
// src over the links for which alive returns true (every link when alive
// is nil): parent[src] = -1, and a node src cannot reach has parent -2.
// Broadcasts flood along this tree; every shipped topology is connected,
// so only a fault plan severing links leaves a node unreachable.
func bfsTree(t Topology, src int, alive func(u, v int) bool) []int {
	parent := make([]int, t.Nodes())
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[src] = -1
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if parent[v] == -2 && (alive == nil || alive(u, v)) {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

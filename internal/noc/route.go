package noc

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the network's route and broadcast-tree layer. Every packet
// route and every broadcast tree comes from RouteAt and BroadcastPlanAt,
// over one cache set keyed by the injector's link-state epoch. With no
// injector attached the epoch never changes and each answer is the
// topology's own route or BFS tree, computed once.

// Route status values for the epoch-keyed cache in Network.routes.
const (
	routeUnknown uint8 = iota
	routeStatic        // static route fully alive at this epoch
	routeDetour        // path is a BFS detour around dead links
	routeSevered       // src and dst partitioned at this epoch
)

// route is one cached RouteAt answer.
type route struct {
	path   []int
	status uint8
}

// treePlan is one cached BroadcastPlanAt answer; parent == nil means not
// computed at this epoch.
type treePlan struct {
	parent, order, unreachable []int
}

// syncEpoch clears the caches if the injector's link state has
// transitioned since they were filled. With no injector the epoch is
// constant zero and this is one predictable branch.
func (n *Network) syncEpoch(at sim.Time) {
	if n.inj != nil {
		if ep := n.inj.EpochAt(at); ep != n.epoch {
			clear(n.routes)
			clear(n.trees)
			n.epoch = ep
		}
	}
}

// RouteAt returns a path from src to dst avoiding links that are
// permanently down at time at. While every link on the static route is
// alive this is exactly the topology's route (rerouted=false); otherwise
// a BFS over surviving links finds a detour (rerouted=true) — a ring
// reverses direction, mesh/torus route around the dead edge. An error
// means src and dst are partitioned and the caller must leave the DL
// fabric (host-forwarding fallback).
//
// Results are cached per (src,dst) for the current epoch: the set of
// dead links is constant between link-state transitions, so every packet
// of a transfer after the first reuses the decision. Returned paths are
// shared with the cache and must be treated as read-only.
func (n *Network) RouteAt(at sim.Time, src, dst int) (path []int, rerouted bool, err error) {
	n.syncEpoch(at)
	r := &n.routes[src*n.n+dst]
	if r.status == routeUnknown {
		r.path, r.status = n.routeAtSlow(at, src, dst)
	}
	if r.status == routeSevered {
		// The error is built per call so its timestamp names this query,
		// not the first one of the epoch.
		return nil, false, fmt.Errorf("noc: %d and %d partitioned in %s at t=%dps",
			n.gid[src], n.gid[dst], n.topo.Name(), at)
	}
	return r.path, r.status == routeDetour, nil
}

// routeAtSlow is the uncached route computation.
func (n *Network) routeAtSlow(at sim.Time, src, dst int) ([]int, uint8) {
	static := n.topo.Route(src, dst)
	if !n.inj.AnyDown(at) {
		return static, routeStatic
	}
	blocked := false
	for i := 0; i+1 < len(static); i++ {
		if n.inj.Down(n.gid[static[i]], n.gid[static[i+1]], at) {
			blocked = true
			break
		}
	}
	if !blocked {
		return static, routeStatic
	}
	parent := n.liveTree(at, src)
	if parent[dst] == -2 {
		return nil, routeSevered
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, routeDetour
}

// BroadcastPlanAt returns a BFS broadcast tree rooted at src over links
// alive at time at, the tree's delivery order (parents precede
// children), and the nodes unreachable from src (parent entry -2). The
// caller delivers to unreachable nodes some other way (host forwarding).
//
// Like RouteAt, results are cached per src for the current epoch — the
// broadcast loop calls this once per chunk, and chunks of one transfer
// share the epoch. All three slices are cache-shared and read-only to
// the caller.
func (n *Network) BroadcastPlanAt(at sim.Time, src int) (parent, order, unreachable []int) {
	n.syncEpoch(at)
	p := &n.trees[src]
	if p.parent == nil {
		p.parent = n.liveTree(at, src)
		p.order = bfsOrder(p.parent, src)
		for i, q := range p.parent {
			if q == -2 {
				p.unreachable = append(p.unreachable, i)
			}
		}
	}
	return p.parent, p.order, p.unreachable
}

// liveTree is the BFS tree rooted at src over links alive at time at
// (every link without an injector); unreachable nodes have parent -2.
// Neighbors are visited in the topology's sorted order, so trees and
// detours are deterministic.
func (n *Network) liveTree(at sim.Time, src int) []int {
	if n.inj == nil {
		return bfsTree(n.topo, src, nil)
	}
	return bfsTree(n.topo, src, func(u, v int) bool {
		return !n.inj.Down(n.gid[u], n.gid[v], at)
	})
}

// bfsOrder returns the nodes of a BFS tree in an order where parents
// precede children. Nodes whose parent is -2 (unreachable in a
// partitioned tree) are left out.
func bfsOrder(parent []int, src int) []int {
	children := make([][]int, len(parent))
	for node, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], node)
		}
	}
	order := []int{src}
	for i := 0; i < len(order); i++ {
		order = append(order, children[order[i]]...)
	}
	return order
}

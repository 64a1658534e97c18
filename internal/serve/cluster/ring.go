// Package cluster is the multi-node layer over internal/serve. Each
// node is a plain dlserve; a consistent-hash ring assigns every spec
// hash a home node, and a Dispatcher clients use submits to that owner,
// hedges reads against its ring successor, and requeues a job on the
// next node when a node dies mid-run.
//
// The whole layer is execution policy. The determinism contract — a
// normalized spec's sha256 exactly addresses its output bytes — makes
// results location-independent: any node computing a spec produces the
// identical bytes, so requeueing and hedging can never change an answer,
// only where and when it is produced. Nothing in this package enters the
// content address.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is an immutable consistent-hash ring over node names (base
// URLs). Each node projects VNodes points onto the ring so ownership
// splits evenly; a key is owned by the first point clockwise from the
// key's own hash. Identical (nodes, vnodes) inputs build identical
// rings in every process.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by h
}

type ringPoint struct {
	h    uint64
	node int // index into nodes
}

// DefaultVNodes is the per-node virtual point count: enough that a
// 3-node ring splits within a few percent of evenly, cheap enough that
// ring construction stays trivial.
const DefaultVNodes = 64

// keyHash maps an arbitrary string onto the ring's keyspace.
func keyHash(s string) uint64 {
	d := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(d[:8])
}

// NewRing builds the ring. Node order does not matter (names are
// sorted first) and duplicates are rejected — two replicas sharing a
// URL is a configuration error, not a bigger cluster.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", sorted[i])
		}
	}
	r := &Ring{nodes: sorted}
	r.points = make([]ringPoint, 0, len(sorted)*vnodes)
	for ni, n := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{h: keyHash(fmt.Sprintf("%s#%d", n, v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// A 64-bit collision between vnode points is vanishingly rare but
		// must still order deterministically across processes.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the ring membership in canonical (sorted) order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Size returns the number of nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// at finds the index of the first ring point clockwise from h.
func (r *Ring) at(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the keyspace
	}
	return i
}

// Owner returns the node that owns key (a spec hash).
func (r *Ring) Owner(key string) string {
	return r.nodes[r.points[r.at(keyHash(key))].node]
}

// Successors returns up to n distinct nodes in ring order starting at
// the key's owner: the owner first, then each next node clockwise. This
// is the Dispatcher's walk — the owner's successor is the requeue
// target when the owner is down and the hedge target for reads.
func (r *Ring) Successors(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.at(keyHash(key)); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

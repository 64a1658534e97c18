package metrics

import (
	"fmt"
	"io"
)

// Traffic is a src×dst inter-DIMM byte matrix — the communication map
// MultiPIM-style analysis mines from per-DIMM request streams. The nmp
// memory layer adds every remote data access to it (data traffic only:
// barrier and collective rendezvous have no per-pair address stream and
// are deliberately excluded). Like the stats counters it is plain
// accumulation on the simulated timeline: recording is deterministic
// and adds no simulated cost.
type Traffic struct {
	n     int
	bytes []uint64 // row-major [src*n + dst]
}

// NewTraffic returns an n×n zero matrix.
func NewTraffic(n int) *Traffic {
	return &Traffic{n: n, bytes: make([]uint64, n*n)}
}

// N returns the matrix dimension (the DIMM count).
func (t *Traffic) N() int { return t.n }

// Add accumulates bytes moved from src to dst. Self-traffic and
// out-of-range pairs are ignored (host-mediated paths use DIMM -1).
func (t *Traffic) Add(src, dst int, bytes uint64) {
	if t == nil || src < 0 || dst < 0 || src >= t.n || dst >= t.n || src == dst {
		return
	}
	t.bytes[src*t.n+dst] += bytes
}

// Get returns the bytes moved from src to dst.
func (t *Traffic) Get(src, dst int) uint64 { return t.bytes[src*t.n+dst] }

// Total returns the bytes moved across all pairs.
func (t *Traffic) Total() uint64 {
	var sum uint64
	for _, b := range t.bytes {
		sum += b
	}
	return sum
}

// Equal reports whether two matrices hold identical cells.
func (t *Traffic) Equal(o *Traffic) bool {
	if t.n != o.n {
		return false
	}
	for i, b := range t.bytes {
		if b != o.bytes[i] {
			return false
		}
	}
	return true
}

// WriteCSV renders the matrix as a CSV heatmap: a "src\dst" corner
// label, one column per destination DIMM, one row per source DIMM.
func (t *Traffic) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "src\\dst"); err != nil {
		return err
	}
	for d := 0; d < t.n; d++ {
		if _, err := fmt.Fprintf(w, ",%d", d); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for s := 0; s < t.n; s++ {
		if _, err := fmt.Fprintf(w, "%d", s); err != nil {
			return err
		}
		for d := 0; d < t.n; d++ {
			if _, err := fmt.Fprintf(w, ",%d", t.bytes[s*t.n+d]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

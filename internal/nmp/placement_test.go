// placement_test.go pins the thread-placement helpers at their boundary
// cases: uneven thread/DIMM ratios, single-group shuffles, and host
// threads.
package nmp

import (
	"testing"
)

// TestPartitionDIMMUnevenHostThreads covers a thread count that does not
// divide the DIMM count: the host baseline stripes partitions round-robin
// so every DIMM stays in rotation even when the last pass is partial.
func TestPartitionDIMMUnevenHostThreads(t *testing.T) {
	s := MustNewSystem(DefaultConfig(6, 3, MechHostCPU)) // 16 threads over 6 DIMMs: wraps mid-pass
	if s.Threads() != 16 {
		t.Fatalf("threads = %d, want 16", s.Threads())
	}
	want := []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3}
	for i, w := range want {
		if got := s.PartitionDIMM(i); got != w {
			t.Fatalf("PartitionDIMM(%d) = %d, want %d", i, got, w)
		}
	}
	// Host threads never live on a DIMM: placement is -1 across the board.
	for i, d := range s.DefaultPlacement() {
		if d != -1 {
			t.Fatalf("host thread %d placed on DIMM %d, want -1", i, d)
		}
	}
}

// TestDefaultPlacementMatchesPartition pins the colocation contract on NMP
// systems: thread i runs on the DIMM its partition lives on, in contiguous
// blocks that cover every DIMM.
func TestDefaultPlacementMatchesPartition(t *testing.T) {
	s := MustNewSystem(DefaultConfig(8, 4, MechDIMMLink))
	place := s.DefaultPlacement()
	seen := make(map[int]int)
	prev := 0
	for i, d := range place {
		if d != s.PartitionDIMM(i) {
			t.Fatalf("thread %d on DIMM %d but partition on DIMM %d", i, d, s.PartitionDIMM(i))
		}
		if d < prev {
			t.Fatalf("placement not block-contiguous at thread %d: %v", i, place)
		}
		prev = d
		seen[d]++
	}
	if len(seen) != 8 {
		t.Fatalf("placement covers %d DIMMs, want 8", len(seen))
	}
	for d, n := range seen {
		if n != s.Cfg.CoresPerDIMM {
			t.Fatalf("DIMM %d got %d threads, want %d", d, n, s.Cfg.CoresPerDIMM)
		}
	}
}

// TestGroupShuffledPlacementSingleGroup runs on 4D-2C, one DL group: the
// shuffle must degenerate to one whole-array permutation — same multiset
// of DIMMs, deterministic per seed, and host systems untouched.
func TestGroupShuffledPlacementSingleGroup(t *testing.T) {
	s := MustNewSystem(DefaultConfig(4, 2, MechDIMMLink))
	base := s.DefaultPlacement()
	got := s.GroupShuffledPlacement(7)
	if len(got) != len(base) {
		t.Fatalf("shuffle changed thread count: %d != %d", len(got), len(base))
	}
	count := func(p []int) map[int]int {
		m := make(map[int]int)
		for _, d := range p {
			m[d]++
		}
		return m
	}
	cb, cg := count(base), count(got)
	for d, n := range cb {
		if cg[d] != n {
			t.Fatalf("DIMM %d occupancy changed: %d -> %d", d, n, cg[d])
		}
	}
	again := s.GroupShuffledPlacement(7)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("same seed produced different shuffles at %d: %v vs %v", i, got, again)
		}
	}

	h := MustNewSystem(DefaultConfig(4, 2, MechHostCPU))
	for _, d := range h.GroupShuffledPlacement(7) {
		if d != -1 {
			t.Fatal("host placement must stay -1 through the shuffle")
		}
	}
}

// TestGroupShuffledPlacementStaysInGroup pins the NUMA-awareness claim:
// with two DL groups a shuffled thread may move, but never across the
// group boundary — its DIMM stays on the same side of the split.
func TestGroupShuffledPlacementStaysInGroup(t *testing.T) {
	s := MustNewSystem(DefaultConfig(8, 4, MechDIMMLink))
	place := s.GroupShuffledPlacement(3)
	half := len(place) / 2
	for i, d := range place {
		if i < half && d >= 4 {
			t.Fatalf("thread %d (group 0) shuffled onto DIMM %d (group 1)", i, d)
		}
		if i >= half && d < 4 {
			t.Fatalf("thread %d (group 1) shuffled onto DIMM %d (group 0)", i, d)
		}
	}
}

package idc

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// mockIC is a deterministic constant-cost transport: every Access costs
// lat plus psPerByte per byte, every Broadcast twice the base latency.
// It lets the collective schedules be checked against closed-form
// reference models without DRAM/bus state.
type mockIC struct {
	lat       sim.Time
	psPerByte uint64
	ctrs      stats.Counters
	bcasts    int
}

func (m *mockIC) Name() string { return "mock" }
func (m *mockIC) Access(at sim.Time, src int, addr uint64, size uint32, write bool) sim.Time {
	return at + m.lat + sim.Time(uint64(size)*m.psPerByte)
}
func (m *mockIC) Broadcast(at sim.Time, src int, addr uint64, size uint32) sim.Time {
	m.bcasts++
	return at + 2*m.lat + sim.Time(uint64(size)*m.psPerByte)
}
func (m *mockIC) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	return maxArrival(arrivals) + m.lat
}
func (m *mockIC) Counters() *stats.Counters { return &m.ctrs }

// maxArrival returns the latest of the arrival times.
func maxArrival(arrivals []sim.Time) sim.Time {
	var m sim.Time
	for _, a := range arrivals {
		if a > m {
			m = a
		}
	}
	return m
}

func newMockColl(algo CollAlgo, dimms int) (*Collectives, *mockIC) {
	ic := &mockIC{lat: 100 * sim.Nanosecond, psPerByte: 40} // 25 GB/s
	return NewCollectives(ic, geoN(dimms, dimms/2), algo), ic
}

func uniform(n int, at sim.Time) ([]sim.Time, []int) {
	arr := make([]sim.Time, n)
	dimms := make([]int, n)
	for i := range arr {
		arr[i] = at
		dimms[i] = i
	}
	return arr, dimms
}

func TestRingAllReduceStepCount(t *testing.T) {
	// Ring AllReduce = reduce-scatter + allgather = 2(N-1) rounds.
	for _, n := range []int{2, 4, 6, 8} {
		c, ic := newMockColl(AlgoRing, n)
		arr, dimms := uniform(n, 0)
		c.Run(arr, dimms, 1<<16)
		if got, want := ic.ctrs.Get(CtrCollSteps), uint64(2*(n-1)); got != want {
			t.Fatalf("n=%d: ring allreduce steps = %d, want %d", n, got, want)
		}
		if ic.ctrs.Get(CtrCollectives) != 1 {
			t.Fatalf("n=%d: episodes = %d", n, ic.ctrs.Get(CtrCollectives))
		}
	}
}

func TestHalvingDoublingFallsBackToRing(t *testing.T) {
	// 6 ranks is not a power of two: the hd schedule must degrade to ring
	// (2(N-1) rounds) instead of producing a wrong pairing.
	c, ic := newMockColl(AlgoHalving, 6)
	arr, dimms := uniform(6, 0)
	c.Run(arr, dimms, 1<<16)
	if got := ic.ctrs.Get(CtrCollSteps); got != 10 {
		t.Fatalf("hd on 6 ranks: steps = %d, want ring's 10", got)
	}
	// 8 ranks runs the real halving-doubling: 2*log2(8) = 6 rounds.
	c8, ic8 := newMockColl(AlgoHalving, 8)
	arr8, dimms8 := uniform(8, 0)
	c8.Run(arr8, dimms8, 1<<16)
	if got := ic8.ctrs.Get(CtrCollSteps); got != 6 {
		t.Fatalf("hd on 8 ranks: steps = %d, want 6", got)
	}
}

func TestRingAllReduceBruteForceReference(t *testing.T) {
	// Small-N reference: replay the ring recurrence independently with the
	// mock's closed-form costs and require exact agreement.
	const n = 4
	bytes := uint32(4000)
	c, ic := newMockColl(AlgoRing, n)
	arrIn := []sim.Time{100, 700, 300, 500}
	dimmsIn := []int{0, 1, 2, 3}
	got := c.Run(arrIn, dimmsIn, bytes)

	chunk := (bytes + n - 1) / n
	xfer := ic.lat + sim.Time(uint64(chunk)*ic.psPerByte)
	reduce := sim.TransferTime(uint64(chunk), reduceBytesPerSec)
	t0 := make([]sim.Time, n)
	for i := range t0 {
		t0[i] = arrIn[i] + IntraDIMMSyncCost
	}
	for pass := 0; pass < 2; pass++ {
		extra := sim.Time(0)
		if pass == 0 {
			extra = reduce // reduce-scatter folds each received chunk
		}
		for s := 0; s < n-1; s++ {
			next := make([]sim.Time, n)
			copy(next, t0)
			for i := 0; i < n; i++ {
				j := (i + 1) % n
				if a := t0[i] + xfer + extra; a > next[j] {
					next[j] = a
				}
			}
			t0 = next
		}
	}
	want := maxArrival(t0) + IntraDIMMSyncCost
	if got != want {
		t.Fatalf("ring allreduce release = %d, brute-force reference = %d", got, want)
	}
}

func TestTreeAllReduceUsesNativeBroadcast(t *testing.T) {
	c, ic := newMockColl(AlgoTree, 8)
	arr, dimms := uniform(8, 0)
	c.Run(arr, dimms, 1<<16)
	if ic.bcasts != 1 {
		t.Fatalf("tree allreduce broadcasts = %d, want 1", ic.bcasts)
	}
}

func TestCollectivesOnRealMechanisms(t *testing.T) {
	// Smoke: repeated AllReduces complete on every baseline transport,
	// release after the latest arrival, and record the episode counters.
	mcn, _ := newMCN(8, 4)
	aim := newAIM(8, 4)
	abc, _ := newABC(8, 4)
	for _, ic := range []Interconnect{mcn, aim, abc} {
		algo := SelectAlgo(ic.Name(), "")
		c := NewCollectives(ic, geoN(8, 4), algo)
		for episodes := uint64(1); episodes <= 4; episodes++ {
			arr, dimms := uniform(8, 0)
			if rel := c.Run(arr, dimms, 4096); rel <= 0 {
				t.Fatalf("%s allreduce %d released at %d", ic.Name(), episodes, rel)
			}
			if got := ic.Counters().Get(CtrCollectives); got != episodes {
				t.Fatalf("%s allreduce %d: episodes = %d", ic.Name(), episodes, got)
			}
		}
		if ic.Counters().Get(CtrCollSteps) == 0 {
			t.Fatalf("%s recorded no collective steps", ic.Name())
		}
	}
}

func TestCollectiveAggregatesThreadsPerDIMM(t *testing.T) {
	// Four threads on two DIMMs must fold into two ranks: one exchange
	// round for a 2-rank ring, not three.
	c, ic := newMockColl(AlgoRing, 4)
	arr := []sim.Time{0, 50, 100, 150}
	dimms := []int{0, 0, 1, 1}
	c.Run(arr, dimms, 1<<12)
	if got := ic.ctrs.Get(CtrCollSteps); got != 2 {
		t.Fatalf("2-rank allreduce steps = %d, want 2", got)
	}
}

func TestNewCollectivesRejectsAuto(t *testing.T) {
	// Auto is resolved once, by the caller (nmp.NewSystem via SelectAlgo).
	defer func() {
		if recover() == nil {
			t.Fatal("NewCollectives accepted AlgoAuto")
		}
	}()
	newMockColl(AlgoAuto, 4)
}

package noc

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

func testLink() LinkConfig {
	return LinkConfig{BytesPerSec: 25e9, Credits: 64}
}

// send walks one packet of size bytes from src to dst the way the DL
// fabric does: RouteAt's path, one HopCrossing per link. It returns the
// arrival time at dst and the hop count.
func send(tb testing.TB, n *Network, at sim.Time, src, dst, size int) (sim.Time, int) {
	tb.Helper()
	path, _, err := n.RouteAt(at, src, dst)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i+1 < len(path); i++ {
		if at, _, err = n.HopCrossing(path[i], path[i+1], at, size); err != nil {
			tb.Fatal(err)
		}
	}
	return at, len(path) - 1
}

// broadcast floods one packet from src down BroadcastPlanAt's tree, one
// HopCrossing per tree edge. It returns the arrival time at each node
// (src maps to at) and the time the last node received the packet.
func broadcast(tb testing.TB, n *Network, at sim.Time, src, size int) ([]sim.Time, sim.Time) {
	tb.Helper()
	parent, order, unreachable := n.BroadcastPlanAt(at, src)
	if len(unreachable) != 0 {
		tb.Fatalf("unreachable nodes %v", unreachable)
	}
	arrivals := make([]sim.Time, len(parent))
	arrivals[src] = at
	last := at
	for _, node := range order[1:] {
		t, _, err := n.HopCrossing(parent[node], node, arrivals[parent[node]], size)
		if err != nil {
			tb.Fatal(err)
		}
		arrivals[node] = t
		last = max(last, t)
	}
	return arrivals, last
}

func TestSendSingleHopLatency(t *testing.T) {
	n := NewNetwork(NewChain(4), testLink())
	// 256 B at 25 GB/s = 10.24 ns serialization + 1 ns wire + 0.8 ns router.
	arrive, hops := send(t, n, 0, 0, 1, 256)
	if hops != 1 {
		t.Fatalf("hops = %d", hops)
	}
	want := sim.Time(10240 + 1000 + 800)
	if arrive != want {
		t.Fatalf("arrive = %d, want %d", arrive, want)
	}
}

func TestSendLatencyScalesWithHops(t *testing.T) {
	n := NewNetwork(NewChain(8), testLink())
	one, _ := send(t, n, 0, 0, 1, 128)
	n2 := NewNetwork(NewChain(8), testLink())
	three, hops := send(t, n2, 0, 0, 3, 128)
	if hops != 3 {
		t.Fatalf("hops = %d", hops)
	}
	if three != 3*one {
		t.Fatalf("3-hop latency %d, want %d", three, 3*one)
	}
}

func TestSendToSelf(t *testing.T) {
	n := NewNetwork(NewChain(4), testLink())
	arrive, hops := send(t, n, 42, 2, 2, 64)
	if arrive != 42 || hops != 0 {
		t.Fatalf("self-send = (%d, %d)", arrive, hops)
	}
}

func TestFlitRounding(t *testing.T) {
	n := NewNetwork(NewChain(2), testLink())
	// 1 byte still occupies one 16-byte flit.
	a1, _ := send(t, n, 0, 0, 1, 1)
	n2 := NewNetwork(NewChain(2), testLink())
	a16, _ := send(t, n2, 0, 0, 1, 16)
	if a1 != a16 {
		t.Fatalf("sub-flit packet not rounded up: %d vs %d", a1, a16)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	n := NewNetwork(NewChain(2), testLink())
	a, _ := send(t, n, 0, 0, 1, 256)
	b, _ := send(t, n, 0, 0, 1, 256)
	ser := sim.TransferTime(256, 25e9)
	if b != a+ser {
		t.Fatalf("second packet arrives %d, want %d", b, a+ser)
	}
}

func TestOppositeDirectionsDontContend(t *testing.T) {
	n := NewNetwork(NewChain(2), testLink())
	a, _ := send(t, n, 0, 0, 1, 256)
	b, _ := send(t, n, 0, 1, 0, 256)
	if a != b {
		t.Fatalf("bidirectional links should be independent: %d vs %d", a, b)
	}
}

func TestDisjointLinksConcurrent(t *testing.T) {
	// Packets 0->1 and 2->3 use different links and finish simultaneously.
	n := NewNetwork(NewChain(4), testLink())
	a, _ := send(t, n, 0, 0, 1, 256)
	b, _ := send(t, n, 0, 2, 3, 256)
	if a != b {
		t.Fatalf("disjoint transfers interfere: %d vs %d", a, b)
	}
}

func TestCreditBackpressure(t *testing.T) {
	cfg := testLink()
	cfg.Credits = 1 // one packet in flight per link
	n := NewNetwork(NewChain(2), cfg)
	a, _ := send(t, n, 0, 0, 1, 64)
	b, _ := send(t, n, 0, 0, 1, 64)
	// With a single credit, the second packet cannot inject until the
	// first's credit returns (after full delivery), so the gap must exceed
	// pure serialization.
	ser := sim.TransferTime(64, 25e9)
	if b-a <= ser {
		t.Fatalf("credit backpressure missing: gap %d, serialization %d", b-a, ser)
	}

	deep := NewNetwork(NewChain(2), testLink())
	c, _ := send(t, deep, 0, 0, 1, 64)
	d, _ := send(t, deep, 0, 0, 1, 64)
	if d-c != ser {
		t.Fatalf("deep credits should be bus-limited: gap %d", d-c)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Pushing many packets over one link approaches the link bandwidth.
	n := NewNetwork(NewChain(2), testLink())
	const packets = 1000
	var last sim.Time
	for i := 0; i < packets; i++ {
		last, _ = send(t, n, 0, 0, 1, 256)
	}
	gbps := float64(packets*256) / (float64(last) / 1e12) / 1e9
	if gbps < 23 || gbps > 25.1 {
		t.Fatalf("link saturation bandwidth %.2f GB/s, want ~25", gbps)
	}
}

func TestBroadcastChain(t *testing.T) {
	n := NewNetwork(NewChain(4), testLink())
	arr, last := broadcast(t, n, 0, 1, 128)
	// Node 1 is the source; 0 and 2 are one hop, 3 is two hops.
	if arr[1] != 0 {
		t.Fatalf("source arrival %d", arr[1])
	}
	if arr[0] != arr[2] {
		t.Fatalf("one-hop arrivals differ: %d vs %d", arr[0], arr[2])
	}
	if arr[3] <= arr[2] {
		t.Fatalf("two-hop arrival %d not after one-hop %d", arr[3], arr[2])
	}
	if last != arr[3] {
		t.Fatalf("last = %d, want %d", last, arr[3])
	}
}

func TestBroadcastReachesAllOnAllTopologies(t *testing.T) {
	for _, topo := range allTopologies() {
		n := NewNetwork(topo, testLink())
		arr, last := broadcast(t, n, 0, 0, 64)
		for node, a := range arr {
			if node != 0 && (a == 0 || a > last) {
				t.Fatalf("%s: node %d arrival %d (last %d)", topo.Name(), node, a, last)
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	n := NewNetwork(NewChain(4), testLink())
	_, h1 := send(t, n, 0, 0, 3, 256)
	_, h2 := send(t, n, 0, 1, 2, 64)
	if h1 != 3 || h2 != 1 {
		t.Fatalf("hops %d and %d, want 3 and 1", h1, h2)
	}
	var total uint64
	u := map[string]float64{}
	for i, key := range n.LinkKeys() {
		total += n.LinkBytesAt(i)
		u[key] = n.LinkUtilizationAt(i, 1000000)
	}
	if total != 3*256+64 {
		t.Fatalf("link bytes total = %d", total)
	}
	if u["0->1"] == 0 || u["3->2"] != 0 {
		t.Fatalf("utilization %v", u)
	}
}

func TestGRSLinkDefaults(t *testing.T) {
	cfg := GRSLink()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.BytesPerSec != 25e9 || FlitBytes != 16 {
		t.Fatalf("GRS defaults %+v", cfg)
	}
}

func BenchmarkSend16Chain(b *testing.B) {
	n := NewNetwork(NewChain(16), testLink())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		send(b, n, sim.Time(i)*100, i%16, (i+5)%16, 256)
	}
}

// TestConcurrentUtilizationSnapshots is the race regression for per-link
// utilization probes: LinkUtilizationAt retires BusyLine spans, a
// mutation that must stay confined to the probed network, so concurrent
// all-link snapshots of distinct networks are clean under -race and land
// on the sequential answer.
func TestConcurrentUtilizationSnapshots(t *testing.T) {
	const nets, iters = 4, 200
	load := func(n *Network) {
		var at sim.Time
		for p := 0; p < 32; p++ {
			end, _ := send(t, n, at, p%8, (p+3)%8, 256)
			at = end / 2
		}
	}
	// Sequential reference: the identical workload sampled the identical
	// way, single-threaded.
	refNet := NewNetwork(NewChain(8), GRSLink())
	load(refNet)
	probe := func(n *Network, dst []float64, now sim.Time) []float64 {
		dst = dst[:0]
		for i := range n.LinkKeys() {
			dst = append(dst, n.LinkUtilizationAt(i, now))
		}
		return dst
	}
	var ref []float64
	for it := 0; it < iters; it++ {
		ref = probe(refNet, ref, sim.Time(1000*(it+1)))
	}

	networks := make([]*Network, nets)
	for i := range networks {
		networks[i] = NewNetwork(NewChain(8), GRSLink())
		load(networks[i])
	}
	var wg sync.WaitGroup
	for i := range networks {
		n := networks[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last []float64
			for it := 0; it < iters; it++ {
				last = probe(n, last, sim.Time(1000*(it+1)))
				if len(last) != len(ref) {
					t.Errorf("probed %d links, want %d", len(last), len(ref))
					return
				}
				for j, u := range last {
					if u < 0 || u > 1 {
						t.Errorf("link %d utilization %v out of [0,1]", j, u)
						return
					}
				}
			}
			// Concurrent sampling must land on the sequential answer.
			for j := range ref {
				if last[j] != ref[j] {
					t.Errorf("link %d: concurrent %v, sequential %v", j, last[j], ref[j])
					return
				}
			}
		}()
	}
	wg.Wait()
}

package core

import (
	"testing"

	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
)

func geoN(dimms, channels int) mem.Geometry {
	return mem.Geometry{
		NumDIMMs:     dimms,
		NumChannels:  channels,
		DIMMCapBytes: 1 << 26,
		RanksPerDIMM: 2,
		BanksPerRank: 16,
		RowBytes:     8192,
		LineBytes:    64,
	}
}

// newTestLink builds a default DIMM-Link over dimms DIMMs, split into
// GroupsFor(dimms) groups: one up to 4 DIMMs, two above, so 16 DIMMs give
// the 8-DIMM groups 0..7 and 8..15.
func newTestLink(dimms, channels int, mode host.PollingMode) (*Link, *sim.Engine) {
	eng := sim.NewEngine()
	geo := geoN(dimms, channels)
	return mustNewLink(eng, geo, testModules(geo), mode, DefaultConfig()), eng
}

func TestGroupsFor(t *testing.T) {
	if GroupsFor(4) != 1 || GroupsFor(8) != 2 || GroupsFor(16) != 2 {
		t.Fatal("group rule wrong")
	}
}

func TestGroupAssignment(t *testing.T) {
	l, _ := newTestLink(16, 8, host.ProxyPolling)
	for d := 0; d < 8; d++ {
		if l.groupOf[d] != 0 {
			t.Fatalf("DIMM %d in group %d", d, l.groupOf[d])
		}
	}
	for d := 8; d < 16; d++ {
		if l.groupOf[d] != 1 {
			t.Fatalf("DIMM %d in group %d", d, l.groupOf[d])
		}
	}
	// Master is the middle DIMM of each group.
	if l.groups[0].master != 3 || l.groups[1].master != 11 {
		t.Fatalf("masters = %d, %d", l.groups[0].master, l.groups[1].master)
	}
}

func TestIntraGroupReadLatency(t *testing.T) {
	l, _ := newTestLink(4, 2, host.ProxyPolling)
	addr := l.geo.DIMMBase(2) // DIMM 0 reads from DIMM 2: two hops
	done := l.Access(0, 0, addr, 64, false)
	// Must be far below any host-forwarded path (which starts at the poll
	// interval, 100 us...100ns) but include link + DRAM time.
	if done > 500*sim.Nanosecond {
		t.Fatalf("intra-group read took %d ps — looks host-forwarded", done)
	}
	if done < 50*sim.Nanosecond {
		t.Fatalf("intra-group read took %d ps — DRAM + 4 link hops cannot be this fast", done)
	}
	if l.Counters().Get("remote.reads") != 1 {
		t.Fatal("remote.reads not counted")
	}
	if l.Counters().Get("host.forwards") != 0 && l.host.Counters.Get("host.forwards") != 0 {
		t.Fatal("intra-group access used the host")
	}
}

func TestIntraGroupLatencyScalesWithHops(t *testing.T) {
	l1, _ := newTestLink(16, 8, host.ProxyPolling)
	oneHop := l1.Access(0, 0, l1.geo.DIMMBase(1), 64, false)
	l2, _ := newTestLink(16, 8, host.ProxyPolling)
	sixHops := l2.Access(0, 0, l2.geo.DIMMBase(6), 64, false)
	if sixHops <= oneHop {
		t.Fatalf("hop scaling missing: 1-hop %d, 6-hop %d", oneHop, sixHops)
	}
}

func TestInterGroupAccessUsesHost(t *testing.T) {
	l, eng := newTestLink(8, 4, host.ProxyPolling)
	addr := l.geo.DIMMBase(6) // DIMM 0 (group 0) -> DIMM 6 (group 1)
	done := l.Access(0, 0, addr, 64, false)
	_ = eng
	if l.host.Counters.Get("host.forwards") == 0 {
		t.Fatal("inter-group access did not use the host")
	}
	// Inter-group read pays two notice+forward legs; with the 100 ns poll
	// interval this lands well above the intra-group latency.
	if done < 200*sim.Nanosecond {
		t.Fatalf("inter-group read %d ps is implausibly fast", done)
	}
	if l.Counters().Get("intergroup.accesses") != 1 {
		t.Fatal("intergroup.accesses not counted")
	}
}

func TestIntraVsInterGroupLatency(t *testing.T) {
	intra, _ := newTestLink(8, 4, host.ProxyPolling)
	a := intra.Access(0, 0, intra.geo.DIMMBase(3), 64, false) // same group
	inter, _ := newTestLink(8, 4, host.ProxyPolling)
	b := inter.Access(0, 0, inter.geo.DIMMBase(4), 64, false) // cross group
	if b <= a {
		t.Fatalf("inter-group (%d) should cost more than intra-group (%d)", b, a)
	}
}

func TestWriteCompletesAtDestination(t *testing.T) {
	l, _ := newTestLink(4, 2, host.ProxyPolling)
	done := l.Access(0, 0, l.geo.DIMMBase(1), 256, true)
	if done == 0 {
		t.Fatal("write returned zero completion")
	}
	if l.dram[1].Stats.Writes == 0 {
		t.Fatal("destination DRAM never written")
	}
	if l.Counters().Get("remote.writes") != 1 {
		t.Fatal("remote.writes not counted")
	}
}

func TestLargeTransferSplitsIntoPackets(t *testing.T) {
	l, _ := newTestLink(4, 2, host.ProxyPolling)
	l.Access(0, 0, l.geo.DIMMBase(1), 4096, true)
	// 4096 bytes = 16 chunks of 256.
	if got := l.Counters().Get("packets"); got != 16 {
		t.Fatalf("packets = %d, want 16", got)
	}
}

func TestLocalAccessPanics(t *testing.T) {
	l, _ := newTestLink(4, 2, host.ProxyPolling)
	defer func() {
		if recover() == nil {
			t.Fatal("local access did not panic")
		}
	}()
	l.Access(0, 0, l.geo.DIMMBase(0), 64, false)
}

func TestBroadcastIntraGroup(t *testing.T) {
	l, _ := newTestLink(4, 2, host.ProxyPolling)
	done := l.Broadcast(0, 1, l.geo.DIMMBase(1), 256)
	if done == 0 || done > 1*sim.Microsecond {
		t.Fatalf("intra-group broadcast took %d", done)
	}
	if l.host.Counters.Get("host.forwards") != 0 {
		t.Fatal("single-group broadcast used the host")
	}
	// One 256B packet flooded to 3 other DIMMs.
	if got := l.Counters().Get("link.bytes"); got != uint64(wireBytesFor(256)*3) {
		t.Fatalf("link.bytes = %d", got)
	}
}

func TestBroadcastInterGroupUsesHostOnce(t *testing.T) {
	l, _ := newTestLink(8, 4, host.ProxyPolling)
	l.Broadcast(0, 0, l.geo.DIMMBase(0), 256)
	// Exactly one forwarded chunk: source group -> remote group master.
	if got := l.host.Counters.Get("host.forwards"); got != 1 {
		t.Fatalf("host.forwards = %d, want 1", got)
	}
}

func TestHierarchicalBarrierOrdering(t *testing.T) {
	l, _ := newTestLink(8, 4, host.ProxyPolling)
	arrivals := []sim.Time{1000, 5000, 3000, 800}
	dimms := []int{0, 2, 5, 7}
	release := l.Barrier(arrivals, dimms)
	if release <= 5000 {
		t.Fatalf("release %d not after last arrival", release)
	}
	if l.Counters().Get("barriers") != 1 {
		t.Fatal("barrier not counted")
	}
	if l.Counters().Get("sync.messages") == 0 {
		t.Fatal("no sync messages exchanged")
	}
}

func TestHierarchicalBeatsCentralizedAcrossGroups(t *testing.T) {
	// With threads spread over two groups, hierarchical sync (one
	// host-forwarded message per group) must beat centralized sync (every
	// remote-group DIMM messages DIMM 0 through the host).
	mkArr := func() ([]sim.Time, []int) {
		var arr []sim.Time
		var dimms []int
		for d := 0; d < 16; d++ {
			arr = append(arr, sim.Time(1000*d))
			dimms = append(dimms, d)
		}
		return arr, dimms
	}
	hier, _ := newTestLink(16, 8, host.ProxyPolling)
	arr, dimms := mkArr()
	rHier := hier.Barrier(arr, dimms)

	centralCfg, _ := newTestLink(16, 8, host.ProxyPolling)
	centralCfg.cfg.Sync = SyncCentralized
	arr2, dimms2 := mkArr()
	rCentral := centralCfg.Barrier(arr2, dimms2)

	if rHier >= rCentral {
		t.Fatalf("hierarchical (%d) not faster than centralized (%d)", rHier, rCentral)
	}
}

func TestErrorInjectionCausesRetries(t *testing.T) {
	eng := sim.NewEngine()
	geo := geoN(4, 2)
	cfg := DefaultConfig()
	cfg.ErrorEvery = 2 // every 2nd packet is corrupted
	l := mustNewLink(eng, geo, testModules(geo), host.BasePolling, cfg)

	clean, _ := newTestLink(4, 2, host.BasePolling)
	cleanDone := clean.Access(0, 0, clean.geo.DIMMBase(1), 64, false)
	done := l.Access(0, 0, l.geo.DIMMBase(1), 64, false)
	if l.Counters().Get("link.retries") == 0 {
		t.Fatal("no retries with error injection")
	}
	if done <= cleanDone {
		t.Fatalf("retries should add latency: %d vs clean %d", done, cleanDone)
	}
}

func TestTopologyVariants(t *testing.T) {
	for _, topo := range []TopologyKind{TopoChain, TopoRing, TopoMesh, TopoTorus} {
		eng := sim.NewEngine()
		geo := geoN(16, 8) // DIMMs 0..7 are the first group
		cfg := DefaultConfig()
		cfg.Topology = topo
		l := mustNewLink(eng, geo, testModules(geo), host.BasePolling, cfg)
		done := l.Access(0, 0, l.geo.DIMMBase(7), 64, false)
		if done == 0 {
			t.Fatalf("%s: zero completion", topo)
		}
	}
}

func TestRingShortensWorstCase(t *testing.T) {
	farAccess := func(topo TopologyKind) sim.Time {
		eng := sim.NewEngine()
		geo := geoN(16, 8) // DIMMs 0..7 are the first group
		cfg := DefaultConfig()
		cfg.Topology = topo
		l := mustNewLink(eng, geo, testModules(geo), host.BasePolling, cfg)
		return l.Access(0, 0, l.geo.DIMMBase(7), 64, false)
	}
	if ring, chain := farAccess(TopoRing), farAccess(TopoChain); ring >= chain {
		t.Fatalf("ring end-to-end (%d) should beat chain (%d) for the far DIMM", ring, chain)
	}
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{4: {2, 2}, 8: {4, 2}, 9: {3, 3}, 6: {3, 2}, 5: {5, 1}}
	for n, want := range cases {
		w, h := meshDims(n)
		if w != want[0] || h != want[1] {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", n, w, h, want[0], want[1])
		}
	}
}

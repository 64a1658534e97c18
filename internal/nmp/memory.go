package nmp

import (
	"repro/internal/cache"
	"repro/internal/cores"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// mcLatency is the local memory controller's overhead per access.
const mcLatency = 10 * sim.Nanosecond

// nmpMemory implements cores.Memory for NMP systems: local accesses go
// through the core's L1, the DIMM's shared L2 and the local memory
// controller into the DIMM's DRAM; remote accesses go through the
// configured IDC mechanism (uncached — under the software-assisted
// coherence of Section III-E, remotely-homed shared data is uncacheable,
// and the DL data buffers are not a coherent cache).
type nmpMemory struct {
	sys *System
	l1  []*cache.Cache // per global core
	l2  []*cache.Cache // per DIMM, shared by its cores

	// bytesLocal and bytesRemote are sys.Ctrs' "bytes.local" and
	// "bytes.remote" cells, bumped on every access.
	bytesLocal, bytesRemote *stats.Counter
}

func newNMPMemory(s *System) *nmpMemory {
	m := &nmpMemory{
		sys:         s,
		bytesLocal:  s.Ctrs.Handle("bytes.local"),
		bytesRemote: s.Ctrs.Handle("bytes.remote"),
	}
	nCores := s.Cfg.Geo.NumDIMMs * s.Cfg.CoresPerDIMM
	m.l1 = make([]*cache.Cache, nCores)
	for i := range m.l1 {
		m.l1[i] = cache.New(nmpL1)
	}
	m.l2 = make([]*cache.Cache, s.Cfg.Geo.NumDIMMs)
	for i := range m.l2 {
		m.l2[i] = cache.New(nmpL2)
	}
	return m
}

// Access implements cores.Memory.
func (m *nmpMemory) Access(at sim.Time, coreID int, addr uint64, size uint32, write bool) (sim.Time, bool) {
	home := m.sys.coreDIMM(coreID)
	target := m.sys.Cfg.Geo.DIMMOf(addr)
	if target != home {
		m.bytesRemote.Add(uint64(size))
		m.sys.Traffic.Add(home, target, uint64(size))
		return m.sys.IC.Access(at, home, addr, size, write), true
	}
	m.bytesLocal.Add(uint64(size))
	cfg := &m.sys.Cfg
	cacheable := m.sys.Space.AttrOf(addr).Cacheable() && uint64(size) <= mem.LineBytes

	if !cacheable {
		// Streaming or shared read-write data: straight through the local MC.
		return m.sys.Modules[home].Access(at+mcLatency, addr, size, write), false
	}
	l1 := m.l1[coreID]
	if r := l1.Access(addr, write); r.Hit {
		return at + l1.HitLatency(), false
	} else if r.WriteBack {
		m.sys.Modules[home].Access(at, r.WriteBackAddr, uint32(mem.LineBytes), true)
	}
	t := at + l1.HitLatency()
	l2 := m.l2[home]
	if r := l2.Access(addr, write); r.Hit {
		return t + l2.HitLatency(), false
	} else if r.WriteBack {
		m.sys.Modules[home].Access(t, r.WriteBackAddr, uint32(mem.LineBytes), true)
	}
	t += l2.HitLatency() + mcLatency
	// Fill the line from local DRAM (the whole line, not just size bytes).
	return m.sys.Modules[home].Access(t, cfg.Geo.LineAddr(addr), uint32(mem.LineBytes), write), false
}

// scatterStride spaces scattered lines one DRAM row plus one line apart,
// forcing the row-conflict behaviour of genuinely random single-element
// updates while staying deterministic.
const scatterStride = mem.RowBytes + mem.LineBytes

// Scatter implements cores.Memory: count line transactions at
// row-conflicting offsets. Local scatters hit the DIMM's banks in parallel
// (the near-memory advantage); a scatter against a remote partition
// degenerates into one bulk IDC transfer of the update records plus the
// remote side's line traffic, approximated by the bulk transfer.
func (m *nmpMemory) Scatter(at sim.Time, coreID int, addr uint64, span uint64, count uint32, write bool) (sim.Time, bool) {
	home := m.sys.coreDIMM(coreID)
	geo := m.sys.Cfg.Geo
	if target := geo.DIMMOf(addr); target != home {
		m.bytesRemote.Add(uint64(count) * mem.LineBytes)
		m.sys.Traffic.Add(home, target, uint64(count)*mem.LineBytes)
		return m.sys.IC.Access(at, home, addr, count*uint32(mem.LineBytes), write), true
	}
	if span < mem.LineBytes {
		span = mem.LineBytes
	}
	done := at
	for i := uint64(0); i < uint64(count); i++ {
		off := (i * scatterStride) % span
		// Each line takes the normal local path: cacheable data (e.g. a
		// thread-private bin array) hits the L1 just as it would on the
		// host; uncacheable shared state pays the DRAM row conflicts.
		if fin, _ := m.Access(at, coreID, geo.LineAddr(addr+off), uint32(mem.LineBytes), write); fin > done {
			done = fin
		}
	}
	return done, false
}

// Broadcast implements cores.Memory. The source DIMM's payload reaches
// every other DIMM, so the traffic matrix charges one copy per
// destination regardless of the mechanism's delivery tree.
func (m *nmpMemory) Broadcast(at sim.Time, coreID int, addr uint64, size uint32) sim.Time {
	home := m.sys.coreDIMM(coreID)
	for d := 0; d < m.sys.Cfg.Geo.NumDIMMs; d++ {
		m.sys.Traffic.Add(home, d, uint64(size))
	}
	return m.sys.IC.Broadcast(at, home, addr, size)
}

// Barrier implements cores.Memory.
func (m *nmpMemory) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	return m.sys.IC.Barrier(arrivals, threadDIMM)
}

// Collective implements cores.Memory: the exchange runs on the IDC
// mechanism's collective scheduler.
func (m *nmpMemory) Collective(op cores.CollectiveOp, arrivals []sim.Time, threadDIMM []int, bytes uint32) sim.Time {
	return m.sys.Coll.Run(arrivals, threadDIMM, bytes)
}

// FlushCaches models the kernel-completion cache flush (Section III-E):
// every dirty line is written back to its DIMM's DRAM. It returns the time
// the last write-back completes.
func (m *nmpMemory) FlushCaches(at sim.Time) sim.Time {
	done := at
	flush := func(c *cache.Cache) {
		for _, line := range c.Flush() {
			d := m.sys.Cfg.Geo.DIMMOf(line)
			if fin := m.sys.Modules[d].Access(at, line, uint32(mem.LineBytes), true); fin > done {
				done = fin
			}
		}
	}
	for _, c := range m.l1 {
		flush(c)
	}
	for _, c := range m.l2 {
		flush(c)
	}
	return done
}

// L1Stats and L2Stats expose aggregate cache statistics.
func (m *nmpMemory) L1Stats() cache.Stats { return sumCacheStats(m.l1) }
func (m *nmpMemory) L2Stats() cache.Stats { return sumCacheStats(m.l2) }

func sumCacheStats(cs []*cache.Cache) cache.Stats {
	var total cache.Stats
	for _, c := range cs {
		total.Hits += c.Stats.Hits
		total.Misses += c.Stats.Misses
		total.Evictions += c.Stats.Evictions
		total.WriteBacks += c.Stats.WriteBacks
	}
	return total
}

// hostBarrierLat is the host baseline's shared-memory barrier (and fence)
// latency.
const hostBarrierLat = 100 * sim.Nanosecond

// hostMemory implements cores.Memory for the 16-core host baseline: per-
// core L1s, a shared LLC, and DRAM behind the shared memory-channel buses.
// Nothing is an IDC access — the host reaches all DIMMs uniformly, paying
// channel bandwidth and DRAM latency.
type hostMemory struct {
	sys *System
	l1  []*cache.Cache
	llc *cache.Cache
}

func newHostMemory(s *System) *hostMemory {
	m := &hostMemory{sys: s, llc: cache.New(hostLLC(s.Cfg.HostLLCBytes))}
	m.l1 = make([]*cache.Cache, HostCores)
	for i := range m.l1 {
		m.l1[i] = cache.New(hostL1)
	}
	return m
}

// Access implements cores.Memory.
func (m *hostMemory) Access(at sim.Time, coreID int, addr uint64, size uint32, write bool) (sim.Time, bool) {
	cfg := &m.sys.Cfg
	// The host is hardware-coherent, so everything is cacheable; only
	// streaming (multi-line) accesses bypass the caches.
	cacheable := uint64(size) <= mem.LineBytes
	if cacheable {
		l1 := m.l1[coreID]
		if r := l1.Access(addr, write); r.Hit {
			return at + l1.HitLatency(), false
		} else if r.WriteBack {
			m.dramWrite(at, r.WriteBackAddr)
		}
		t := at + l1.HitLatency()
		if r := m.llc.Access(addr, write); r.Hit {
			return t + m.llc.HitLatency(), false
		} else if r.WriteBack {
			m.dramWrite(t, r.WriteBackAddr)
		}
		t += m.llc.HitLatency()
		return m.dramAccess(t, cfg.Geo.LineAddr(addr), uint32(mem.LineBytes), write), false
	}
	return m.dramAccess(at, addr, size, write), false
}

// dramAccess goes over the target DIMM's channel bus and its DRAM; the
// channel is the bandwidth limit the host baseline lives under.
func (m *hostMemory) dramAccess(at sim.Time, addr uint64, size uint32, write bool) sim.Time {
	d := m.sys.Cfg.Geo.DIMMOf(addr)
	busStart, busEnd := m.sys.hostModel.ChannelAccessStart(at, d, size)
	done := m.sys.Modules[d].Access(busStart, addr, size, write)
	if busEnd > done {
		done = busEnd
	}
	return done
}

func (m *hostMemory) dramWrite(at sim.Time, line uint64) {
	m.dramAccess(at, line, uint32(mem.LineBytes), true)
}

// Scatter implements cores.Memory for the host: each scattered element is
// a full cache-line transaction through the cache hierarchy and, on miss,
// the shared memory channels — the bandwidth amplification near-memory
// processing eliminates.
func (m *hostMemory) Scatter(at sim.Time, coreID int, addr uint64, span uint64, count uint32, write bool) (sim.Time, bool) {
	geo := m.sys.Cfg.Geo
	if span < mem.LineBytes {
		span = mem.LineBytes
	}
	done := at
	for i := uint64(0); i < uint64(count); i++ {
		off := (i * scatterStride) % span
		if fin, _ := m.Access(at, coreID, geo.LineAddr(addr+off), uint32(mem.LineBytes), write); fin > done {
			done = fin
		}
	}
	return done, false
}

// Broadcast implements cores.Memory: on the host every core already sees
// all memory, so a broadcast is just a barrier-strength fence.
func (m *hostMemory) Broadcast(at sim.Time, coreID int, addr uint64, size uint32) sim.Time {
	return at + hostBarrierLat
}

// Barrier implements cores.Memory with a shared-memory barrier.
func (m *hostMemory) Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time {
	var max sim.Time
	for _, a := range arrivals {
		if a > max {
			max = a
		}
	}
	return max + hostBarrierLat
}

// Collective implements cores.Memory for the host baseline: all ranks
// share one coherent memory, so the exchange is a barrier, one pass of the
// payload over the (aggregate) channel buses to read every peer's
// contribution, and a release fence.
func (m *hostMemory) Collective(op cores.CollectiveOp, arrivals []sim.Time, threadDIMM []int, bytes uint32) sim.Time {
	var max sim.Time
	for _, a := range arrivals {
		if a > max {
			max = a
		}
	}
	bw := host.ChannelBytesPerSec * float64(m.sys.Cfg.Geo.NumChannels)
	return max + hostBarrierLat + sim.TransferTime(uint64(bytes), bw) + hostBarrierLat
}

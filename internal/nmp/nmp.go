// Package nmp assembles complete simulated systems: DIMM-NMP systems with a
// selectable inter-DIMM communication mechanism (DIMM-Link or one of the
// baselines), and the 16-core host-CPU baseline the paper normalizes
// against.
//
// The paper's target architecture (Section II-A) is the centralized-buffer
// DIMM-NMP with a coarse-grained execution flow: during kernel execution
// the DIMMs are in NMP-Access mode, the per-DIMM local memory controllers
// own the DRAM, and the host only touches buffer SRAM for polling and
// packet forwarding. Each DIMM carries four general-purpose NMP cores with
// private L1s and a shared 128 KB L2 (Table V).
package nmp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/host"
	"repro/internal/idc"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mechanism selects the IDC mechanism of an NMP system, or the host-CPU
// baseline.
type Mechanism string

// The compared systems of the evaluation.
const (
	MechDIMMLink Mechanism = "dimm-link"
	MechMCN      Mechanism = "mcn"
	MechAIM      Mechanism = "aim"
	MechABCDIMM  Mechanism = "abc-dimm"
	MechHostCPU  Mechanism = "host-cpu"
)

// Table V's cores and caches. NMP and host cores both issue one memory
// operation per cycle; they differ in clock and outstanding-miss window.
// The host's LLC size is the one cache setting a Config carries.
const (
	NMPClockHz  = 2.5e9     // NMP core clock
	nmpWindow   = 8         // NMP outstanding misses per thread
	L1Bytes     = 32 << 10  // private L1 of each NMP core
	L2Bytes     = 128 << 10 // L2 shared by a DIMM's NMP cores
	HostCores   = 16        // host-CPU baseline cores
	HostClockHz = 2.4e9     // the paper's testbed Xeon 4210R clock
	HostWindow  = 16        // host outstanding misses per thread
)

var (
	nmpCore  = cores.Config{ClockHz: NMPClockHz, Window: nmpWindow}
	hostCore = cores.Config{ClockHz: HostClockHz, Window: HostWindow}
	nmpL1    = cache.Config{SizeBytes: L1Bytes, Ways: 4, HitLatency: 1200}
	nmpL2    = cache.Config{SizeBytes: L2Bytes, Ways: 8, HitLatency: 4 * sim.Nanosecond}
	hostL1   = cache.Config{SizeBytes: 32 << 10, Ways: 8, HitLatency: 1200}
)

// hostLLC is the host's shared LLC at the given size.
func hostLLC(sizeBytes uint64) cache.Config {
	return cache.Config{SizeBytes: sizeBytes, Ways: 16, HitLatency: 12 * sim.Nanosecond}
}

// Config describes a full system: what the experiments vary about it. The
// rest of Table V is the constants above and in the component packages.
type Config struct {
	Geo  mem.Geometry
	Mech Mechanism

	// ClosedPage selects the closed-page DRAM row policy (see dram.New);
	// the evaluation uses open page, and the abl-page ablation compares.
	ClosedPage bool

	// CoresPerDIMM is the NMP cores of each DIMM.
	CoresPerDIMM int

	// Host side: the polling mode the host notices forwarding requests in
	// on NMP systems, and the size of the host baseline's shared LLC.
	Host         host.PollingMode
	HostLLCBytes uint64

	// DL configures the DIMM-Link mechanism.
	DL core.Config

	// CollAlgo overrides the collective schedule (ring / hd / tree) for
	// NMP systems; AlgoAuto (the default) selects per mechanism and DL
	// topology via idc.SelectAlgo.
	CollAlgo idc.CollAlgo

	// Metrics optionally attaches the observability layer to every
	// instrumentable component (DL network links, host forwarding, DL
	// controllers). nil — the default — records nothing and leaves the
	// simulation on the exact un-instrumented path.
	Metrics *metrics.Collector
}

// DefaultConfig returns the Table V system for the given DIMM/channel
// count: 4x 2.5 GHz NMP cores per DIMM with 32 KB L1s and a shared 128 KB
// L2, DDR4-3200 LR-DIMMs with 2 ranks, a 16-core 2.4 GHz OoO host (the
// paper's testbed CPUs are Xeon 4210R @ 2.4 GHz) with 8 MB LLC, GRS
// DIMM-Link, and the polling-proxy strategy.
func DefaultConfig(dimms, channels int, mech Mechanism) Config {
	mode := host.BasePolling
	if mech == MechDIMMLink {
		mode = host.ProxyPolling
	}
	return Config{
		Geo:          mem.Geometry{NumDIMMs: dimms, NumChannels: channels},
		Mech:         mech,
		CoresPerDIMM: 4,
		Host:         mode,
		HostLLCBytes: 8 << 20,
		DL:           core.DefaultConfig(),
	}
}

// System is one assembled simulation instance. Create a fresh System per
// experiment run; state (DRAM rows, caches, counters) is not resettable.
type System struct {
	Cfg     Config
	Eng     *sim.Engine
	Space   *mem.Space
	Modules []*dram.Module

	// IC is the IDC mechanism; nil for the host baseline.
	IC        idc.Interconnect
	Link      *core.Link // non-nil only for MechDIMMLink
	hostModel *host.Host

	// Coll schedules collective operations over IC; nil for the host
	// baseline (whose shared memory needs no transport schedule).
	Coll *idc.Collectives

	// Traffic accumulates the src×dst inter-DIMM byte matrix (data
	// accesses and broadcasts; sync-only barrier/collective rendezvous
	// excluded). nil for the host baseline, whose accesses are never
	// inter-DIMM. Recording is passive bookkeeping — it never perturbs
	// the simulated timeline.
	Traffic *metrics.Traffic

	memory  cores.Memory
	nmpMem  *nmpMemory // base memory for the end-of-kernel cache flush
	Ctrs    stats.Counters
	sampler *metrics.Sampler
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Geo.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	space := mem.MustNewSpace(cfg.Geo)
	modules := make([]*dram.Module, cfg.Geo.NumDIMMs)
	for i := range modules {
		modules[i] = dram.New(cfg.Geo, cfg.ClosedPage, i)
	}
	s := &System{Cfg: cfg, Eng: eng, Space: space, Modules: modules}

	// One host per system, except on AIM, which never touches it. pollTargets
	// are the DIMMs its periodic loop scans; the host-CPU baseline needs the
	// channel buses but no polling loop.
	var pollTargets []int
	switch cfg.Mech {
	case MechDIMMLink:
		pollTargets = core.PollTargets(cfg.Geo.NumDIMMs, cfg.Host, cfg.DL)
	case MechMCN, MechABCDIMM:
		pollTargets = make([]int, cfg.Geo.NumDIMMs)
		for i := range pollTargets {
			pollTargets[i] = i
		}
	case MechAIM, MechHostCPU:
	default:
		return nil, fmt.Errorf("nmp: unknown mechanism %q", cfg.Mech)
	}
	if m := cfg.Host; (m == host.ProxyPolling || m == host.ProxyInterrupt) && cfg.Mech != MechDIMMLink {
		return nil, fmt.Errorf("nmp: polling mode %v needs polling proxies, which only %s has, not %s", m, MechDIMMLink, cfg.Mech)
	}
	if cfg.Mech != MechAIM {
		s.hostModel = host.New(eng, cfg.Geo, cfg.Host, pollTargets)
		s.hostModel.SetMetrics(cfg.Metrics)
	}

	switch cfg.Mech {
	case MechDIMMLink:
		l, err := core.NewLink(cfg.Geo, modules, s.hostModel, cfg.DL)
		if err != nil {
			return nil, err
		}
		l.SetMetrics(cfg.Metrics)
		s.IC, s.Link = l, l
	case MechMCN:
		s.IC = idc.NewMCN(cfg.Geo, modules, s.hostModel)
	case MechAIM:
		s.IC = idc.NewAIM(cfg.Geo, modules)
	case MechABCDIMM:
		s.IC = idc.NewABCDIMM(cfg.Geo, modules, s.hostModel)
	}

	if cfg.Mech == MechHostCPU {
		s.memory = newHostMemory(s)
	} else {
		algo := cfg.CollAlgo
		if algo == idc.AlgoAuto {
			algo = idc.SelectAlgo(string(cfg.Mech), string(cfg.DL.Topology))
		}
		s.Coll = idc.NewCollectives(s.IC, cfg.Geo, algo)
		s.Traffic = metrics.NewTraffic(cfg.Geo.NumDIMMs)
		s.nmpMem = newNMPMemory(s)
		s.memory = s.nmpMem
	}
	return s, nil
}

// MustNewSystem panics on configuration errors.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Host returns the host model (nil for AIM, which never touches the host).
func (s *System) Host() *host.Host { return s.hostModel }

// EnergyInputs assembles the energy model's inputs for a run of the given
// makespan on this system: per-DIMM DRAM stats, the interconnect's
// counters and the host's.
func (s *System) EnergyInputs(makespan sim.Time) energy.Inputs {
	in := energy.Inputs{
		Makespan:  makespan,
		NumDIMMs:  s.Cfg.Geo.NumDIMMs,
		DRAMStats: make([]dram.Stats, len(s.Modules)),
		IsHostRun: s.Cfg.Mech == MechHostCPU,
	}
	for i, m := range s.Modules {
		in.DRAMStats[i] = m.Stats
	}
	if s.IC != nil {
		in.IC = s.IC.Counters()
	}
	if s.hostModel != nil {
		in.Host = &s.hostModel.Counters
	}
	return in
}

// Memory returns the cores.Memory the system's threads run against.
func (s *System) Memory() cores.Memory { return s.memory }

// InstrumentMemory interposes wrap(current) in front of the memory system
// — e.g. a trace.Recorder. The end-of-kernel cache flush still operates on
// the underlying memory.
func (s *System) InstrumentMemory(wrap func(cores.Memory) cores.Memory) {
	s.memory = wrap(s.memory)
}

// NewGroup creates a thread group bound to this system's memory. NMP
// systems use the NMP core model; the host baseline uses the host core
// model.
func (s *System) NewGroup() *cores.Group {
	coreCfg := nmpCore
	if s.Cfg.Mech == MechHostCPU {
		coreCfg = hostCore
	}
	return cores.NewGroup(s.Eng, coreCfg, s.memory)
}

// Threads returns how many worker threads this system runs: one per NMP
// core, or HostCores on the baseline.
func (s *System) Threads() int {
	if s.Cfg.Mech == MechHostCPU {
		return HostCores
	}
	return s.Cfg.Geo.NumDIMMs * s.Cfg.CoresPerDIMM
}

// DefaultPlacement maps thread i to DIMM i*N/T: threads fill the DIMMs in
// blocks, colocated with the per-thread partitions workloads allocate the
// same way. The host baseline places every thread on "DIMM" -1.
func (s *System) DefaultPlacement() []int {
	t := s.Threads()
	place := make([]int, t)
	if s.Cfg.Mech == MechHostCPU {
		for i := range place {
			place[i] = -1
		}
		return place
	}
	for i := range place {
		place[i] = i * s.Cfg.Geo.NumDIMMs / t
	}
	return place
}

// ShuffledPlacement maps threads to DIMMs by a seeded pseudo-random
// permutation of the core slots — a fully data-oblivious scheduler ("we
// first randomly place T threads to N DIMMs"). The host baseline is
// unaffected (all -1).
func (s *System) ShuffledPlacement(seed int64) []int {
	place := s.DefaultPlacement()
	if s.Cfg.Mech == MechHostCPU {
		return place
	}
	rng := newSplitMix(uint64(seed))
	for i := len(place) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		place[i], place[j] = place[j], place[i]
	}
	return place
}

// GroupShuffledPlacement permutes thread placement *within* each DL group:
// the scheduler is NUMA-domain-aware (it keeps a thread on the correct side
// of the socket, where its partition lives) but not link-hop-aware — the
// realistic starting point that distance-aware task mapping (Section IV-B)
// improves on. Mechanisms with a uniform medium (MCN, AIM, ABC-DIMM) are
// insensitive to this shuffle; DIMM-Link pays extra hops until the task
// mapper recovers the alignment.
func (s *System) GroupShuffledPlacement(seed int64) []int {
	place := s.DefaultPlacement()
	if s.Cfg.Mech == MechHostCPU {
		return place
	}
	groups := core.GroupsFor(s.Cfg.Geo.NumDIMMs)
	perGroup := len(place) / groups
	rng := newSplitMix(uint64(seed))
	for g := 0; g < groups; g++ {
		lo := g * perGroup
		hi := lo + perGroup
		if g == groups-1 {
			hi = len(place)
		}
		for i := hi - 1; i > lo; i-- {
			j := lo + int(rng.next()%uint64(i-lo+1))
			place[i], place[j] = place[j], place[i]
		}
	}
	return place
}

// splitMix is a tiny deterministic PRNG, independent of math/rand so that
// placement shuffles never perturb workload generation streams.
type splitMix struct{ x uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{x: seed + 0x9e3779b97f4a7c15} }

func (s *splitMix) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PartitionDIMM returns the DIMM that thread i's data partition should live
// on under the default (aligned) layout, regardless of where the thread
// itself currently runs. For the host baseline data is striped; -1 selects
// round-robin placement by the caller.
func (s *System) PartitionDIMM(i int) int {
	if s.Cfg.Mech == MechHostCPU {
		return i % s.Cfg.Geo.NumDIMMs
	}
	return i * s.Cfg.Geo.NumDIMMs / s.Threads()
}

// StartSampler arms a periodic metrics sampler over the system's
// instrumentable state: per-link utilization of every DL group network
// (probe "linkutil.g<group>.<u>-><v>"), per-DIMM transaction-tag
// occupancy ("tags.d<dimm>"), and mean host channel-bus occupation
// ("hostbus.occ"). Probes register in a fixed order (groups, then link
// keys sorted, then DIMMs, then the host), so the recorded series — and
// any trace events — are deterministic. The sampler stops with the
// system's Stop. Sampling is passive observation: it reads utilization
// state but never reserves simulated resources, so an identically-seeded
// run without a sampler produces the same timeline.
func (s *System) StartSampler(period sim.Time) *metrics.Sampler {
	if s.sampler != nil {
		return s.sampler
	}
	sp := metrics.NewSampler(period, s.Cfg.Metrics)
	if s.Link != nil {
		for gi, net := range s.Link.Networks() {
			net := net
			for li, key := range net.LinkKeys() {
				li := li
				sp.AddProbe(fmt.Sprintf("linkutil.g%d.%s", gi, key),
					func(now sim.Time) float64 { return net.LinkUtilizationAt(li, now) })
			}
		}
		for d, c := range s.Link.Controllers() {
			c := c
			sp.AddProbe(fmt.Sprintf("tags.d%d", d),
				func(now sim.Time) float64 { return float64(c.TagsInUse(now)) })
		}
	}
	if s.hostModel != nil {
		h := s.hostModel
		sp.AddProbe("hostbus.occ",
			func(now sim.Time) float64 { return h.BusOccupation(now) })
	}
	sp.Start(s.Eng)
	s.sampler = sp
	return sp
}

// Sampler returns the sampler started by StartSampler, or nil.
func (s *System) Sampler() *metrics.Sampler { return s.sampler }

// Stop halts background activity (host polling). Call after the kernel
// completes, before reading utilization stats.
func (s *System) Stop() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.hostModel != nil {
		s.hostModel.Stop()
	}
}

// coreDIMM maps a global core ID to its DIMM for NMP systems: core c sits
// on DIMM c / CoresPerDIMM.
func (s *System) coreDIMM(coreID int) int { return coreID / s.Cfg.CoresPerDIMM }

// CoreID returns the global core ID of the ith core on a DIMM.
func (s *System) CoreID(dimm, localCore int) int {
	return dimm*s.Cfg.CoresPerDIMM + localCore
}

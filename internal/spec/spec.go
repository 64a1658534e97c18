// Package spec defines the canonical job specification shared by the
// dlsim and dlbench CLIs and the dlserve service. A Spec captures
// everything that determines a run's output — mechanism, system size,
// workload and sizing, seeds, topology and link parameters, fault plan,
// experiment selection — and nothing that doesn't (worker-pool width,
// progress callbacks, profiling flags: all execution policy, all proven
// output-neutral by the repository's determinism tests).
//
// Because the simulator is byte-deterministic in the Spec, the canonical
// encoding of a normalized Spec is a sound content address: two requests
// with the same Hash are guaranteed to produce identical bytes, which is
// what lets dlserve cache and deduplicate results without approximation.
package spec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/idc"
	"repro/internal/ingest"
	"repro/internal/nmp"
	"repro/internal/workloads"
)

// Kind selects what a Spec runs: one simulation (the dlsim shape) or an
// experiment suite (the dlbench shape).
type Kind string

const (
	KindSim Kind = "sim"
	KindExp Kind = "exp"
	// KindTrace replays an ingested external trace (internal/ingest)
	// against a simulated system. The spec carries the trace's canonical
	// content hash, not its bytes: the same trace + spec is the same job,
	// cacheable like any other.
	KindTrace Kind = "trace"
)

// Shared defaults. Both CLIs and the service resolve omitted fields to
// these values, so a flag default can no longer drift between binaries.
const (
	DefaultMech       = string(nmp.MechDIMMLink)
	DefaultDIMMs      = 8
	DefaultChannels   = 4
	DefaultWorkload   = "bfs"
	DefaultScale      = 14
	DefaultEdgeFactor = 8
	DefaultIters      = 4
	DefaultSeed       = int64(42)
	DefaultTopology   = string(core.TopoChain)
	DefaultLinkBW     = 25e9
	DefaultFaultSeed  = int64(1)
	DefaultMap        = ingest.MapPage
	DefaultPageBytes  = 4096
)

// Spec is one canonical job description. The zero value of every field
// means "use the shared default" (resolved by Normalized); a Seed or
// FaultSeed of 0 therefore also resolves to the default seed, which is
// part of the canonicalization contract.
type Spec struct {
	Kind Kind `json:"kind"`

	// Simulation fields (Kind == KindSim).
	Mech       string  `json:"mech,omitempty"`
	DIMMs      int     `json:"dimms,omitempty"`    // in [1, 64] (core.MaxDIMMs), sim and trace kinds
	Channels   int     `json:"channels,omitempty"` // in [1, DIMMs]
	Workload   string  `json:"workload,omitempty"`
	Scale      int     `json:"scale,omitempty"` // in [4, 24]: 2^Scale vertices or points (K-Means needs >= 16)
	EdgeFactor int     `json:"ef,omitempty"`    // in [1, 64]: graph edges per vertex
	Iters      int     `json:"iters,omitempty"` // at least 1
	Topology   string  `json:"topology,omitempty"`
	LinkBW     float64 `json:"linkbw,omitempty"` // in [1e9, 1e12] bytes/s
	Polling    string  `json:"polling,omitempty"`
	CXL        bool    `json:"cxl,omitempty"`
	Broadcast  bool    `json:"broadcast,omitempty"`
	// Coll forces the collective algorithm ("ring", "hd", "tree"); empty
	// selects per-mechanism/topology auto-selection (idc.SelectAlgo).
	Coll string `json:"coll,omitempty"`

	// Experiment fields (Kind == KindExp). Exp is an experiment id, a
	// comma-separated list of ids, or "all". Full selects paper-scale
	// inputs (dlbench -full); the default is quick mode.
	Exp  string `json:"exp,omitempty"`
	Full bool   `json:"full,omitempty"`

	// Trace fields (Kind == KindTrace). Trace is the canonical sha256 of
	// the ingested trace (ingest.Reader.Sum); Map the address→DIMM
	// mapping policy; PageBytes the mapping granularity.
	Trace     string `json:"trace,omitempty"`
	Map       string `json:"map,omitempty"`
	PageBytes int    `json:"pagebytes,omitempty"`

	// Shared fields.
	Seed      int64  `json:"seed,omitempty"`
	Fault     string `json:"fault,omitempty"`
	FaultSeed int64  `json:"faultseed,omitempty"`
}

// Exp returns an exp-kind spec for the given experiment selection.
func Exp(id string) Spec {
	s, err := Spec{Kind: KindExp, Exp: id}.Normalized()
	if err != nil {
		s = Spec{Kind: KindExp, Exp: id, Seed: DefaultSeed, FaultSeed: DefaultFaultSeed}
	}
	return s
}

// workloadAliases maps every accepted workload spelling to its canonical
// name, so aliases ("hs", "pagerank") content-address identically.
var workloadAliases = map[string]string{
	"bfs": "bfs", "hotspot": "hotspot", "hs": "hotspot",
	"kmeans": "kmeans", "km": "kmeans", "nw": "nw",
	"pr": "pr", "pagerank": "pr", "sssp": "sssp", "spmv": "spmv",
	"tspow": "tspow", "ts": "tspow", "p2p": "p2p", "sync": "sync",
	"gemv": "gemv", "histo": "histo", "histogram": "histo",
	"train": "train",
}

// CanonicalWorkload resolves a workload name or alias to its canonical
// spelling.
func CanonicalWorkload(name string) (string, error) {
	c, ok := workloadAliases[strings.ToLower(name)]
	if !ok {
		return "", fmt.Errorf("spec: unknown workload %q", name)
	}
	return c, nil
}

// ParsePolling maps a polling-mode name to the host model's constant.
func ParsePolling(s string) (host.PollingMode, error) {
	switch s {
	case "base":
		return host.BasePolling, nil
	case "base+itrpt":
		return host.BaseInterrupt, nil
	case "proxy":
		return host.ProxyPolling, nil
	case "proxy+itrpt":
		return host.ProxyInterrupt, nil
	}
	return 0, fmt.Errorf("spec: unknown polling mode %q", s)
}

// Normalized resolves defaults, canonicalizes aliases and validates the
// spec, returning the canonical form that Hash and the runners operate
// on. Fields irrelevant to the spec's kind are zeroed so they cannot
// perturb the content address.
func (s Spec) Normalized() (Spec, error) {
	n := s
	if n.Kind == "" {
		n.Kind = KindSim
	}
	if n.Seed == 0 {
		n.Seed = DefaultSeed
	}
	if n.FaultSeed == 0 {
		n.FaultSeed = DefaultFaultSeed
	}
	if n.Fault == "" {
		// An absent plan draws nothing, so its seed is inert state: pin
		// it so "no fault" always hashes identically.
		n.FaultSeed = DefaultFaultSeed
	} else if _, err := fault.ParsePlan(n.Fault, n.FaultSeed); err != nil {
		return Spec{}, err
	}

	switch n.Kind {
	case KindSim:
		n.Exp, n.Full = "", false
		n.Trace, n.Map, n.PageBytes = "", "", 0
		if err := n.normalizeSystem(); err != nil {
			return Spec{}, err
		}
		if n.Workload == "" {
			n.Workload = DefaultWorkload
		}
		w, err := CanonicalWorkload(n.Workload)
		if err != nil {
			return Spec{}, err
		}
		n.Workload = w
		if n.Scale == 0 {
			n.Scale = DefaultScale
		}
		if n.Scale < 4 || n.Scale > 24 {
			return Spec{}, fmt.Errorf("spec: scale %d out of range [4, 24]", n.Scale)
		}
		if n.EdgeFactor == 0 {
			n.EdgeFactor = DefaultEdgeFactor
		}
		if n.EdgeFactor < 1 || n.EdgeFactor > 64 {
			return Spec{}, fmt.Errorf("spec: ef (edge factor) %d out of range [1, 64]", n.EdgeFactor)
		}
		if n.Iters == 0 {
			n.Iters = DefaultIters
		}
		if n.Iters < 1 {
			return Spec{}, fmt.Errorf("spec: iters %d must be at least 1", n.Iters)
		}
		if !idc.ValidAlgo(n.Coll) {
			return Spec{}, fmt.Errorf("spec: unknown collective algorithm %q", n.Coll)
		}
	case KindTrace:
		// A replay run has the sim kind's system shape but no generated
		// workload: the workload-sizing fields (and the input-generator
		// seed, which nothing draws from) are pinned so they cannot split
		// the content address.
		n.Exp, n.Full = "", false
		n.Workload, n.Scale, n.EdgeFactor, n.Iters = "", 0, 0, 0
		n.Broadcast, n.Coll = false, ""
		n.Seed = DefaultSeed
		if nmp.Mechanism(n.Mech) == nmp.MechHostCPU {
			return Spec{}, fmt.Errorf("spec: trace replay drives NMP cores; the host-cpu baseline has none")
		}
		if err := n.normalizeSystem(); err != nil {
			return Spec{}, err
		}
		if !isTraceHash(n.Trace) {
			return Spec{}, fmt.Errorf("spec: trace %q is not a canonical sha256 (64 lowercase hex chars)", n.Trace)
		}
		if n.Map == "" {
			n.Map = DefaultMap
		}
		switch n.Map {
		case ingest.MapDirect, ingest.MapPage, ingest.MapFirstTouch:
		default:
			return Spec{}, fmt.Errorf("spec: unknown mapping policy %q (want direct, page or first-touch)", n.Map)
		}
		if n.PageBytes == 0 {
			n.PageBytes = DefaultPageBytes
		}
		if n.PageBytes < 64 || n.PageBytes > 1<<28 || n.PageBytes&(n.PageBytes-1) != 0 {
			return Spec{}, fmt.Errorf("spec: page size %d must be a power of two in [64, 2^28]", n.PageBytes)
		}
	case KindExp:
		n.Mech, n.DIMMs, n.Channels, n.Workload = "", 0, 0, ""
		n.Scale, n.EdgeFactor, n.Iters = 0, 0, 0
		n.Topology, n.LinkBW, n.Polling = "", 0, ""
		n.CXL, n.Broadcast, n.Coll = false, false, ""
		n.Trace, n.Map, n.PageBytes = "", "", 0
		if n.Exp == "" {
			return Spec{}, fmt.Errorf("spec: exp kind needs an experiment id (or \"all\")")
		}
		if _, err := n.Targets(); err != nil {
			return Spec{}, err
		}
	default:
		return Spec{}, fmt.Errorf("spec: unknown kind %q", n.Kind)
	}
	return n, nil
}

// The link bandwidth bounds. Wall time follows simulated time, which grows
// as the bandwidth shrinks (the host polls every 100 ns), so a tiny or NaN
// bandwidth would hold a worker for days; fig16 sweeps 4-64 GB/s.
const (
	minLinkBW = 1e9
	maxLinkBW = 1e12
)

// normalizeSystem resolves the defaults of, and validates, the system
// shape the sim and trace kinds share: the mechanism; at most
// core.MaxDIMMs DIMMs (the DL packet's SRC/DST field, and a bound on what
// one spec can make a worker allocate) and no more channels than DIMMs;
// the DL topology and a finite link bandwidth in [minLinkBW, maxLinkBW];
// and the polling mode, whose proxy modes need DIMM-Link's polling
// proxies (Section IV-A).
func (n *Spec) normalizeSystem() error {
	if n.Mech == "" {
		n.Mech = DefaultMech
	}
	switch nmp.Mechanism(n.Mech) {
	case nmp.MechDIMMLink, nmp.MechMCN, nmp.MechAIM, nmp.MechABCDIMM, nmp.MechHostCPU:
	default:
		return fmt.Errorf("spec: unknown mechanism %q", n.Mech)
	}
	if n.DIMMs == 0 {
		n.DIMMs = DefaultDIMMs
	}
	if n.Channels == 0 {
		n.Channels = DefaultChannels
	}
	if n.DIMMs < 1 || n.DIMMs > core.MaxDIMMs {
		return fmt.Errorf("spec: dimms %d out of range [1, %d]", n.DIMMs, core.MaxDIMMs)
	}
	if n.Channels < 1 || n.Channels > n.DIMMs {
		return fmt.Errorf("spec: channels %d out of range [1, dimms %d]", n.Channels, n.DIMMs)
	}
	if n.Topology == "" {
		n.Topology = DefaultTopology
	}
	switch core.TopologyKind(n.Topology) {
	case core.TopoChain, core.TopoRing, core.TopoMesh, core.TopoTorus:
	default:
		return fmt.Errorf("spec: unknown topology %q", n.Topology)
	}
	if n.LinkBW == 0 {
		n.LinkBW = DefaultLinkBW
	}
	if !(n.LinkBW >= minLinkBW && n.LinkBW <= maxLinkBW) { // also rejects NaN
		return fmt.Errorf("spec: linkbw %g out of range [%g, %g] bytes/s", n.LinkBW, minLinkBW, maxLinkBW)
	}
	if n.Polling == "" {
		return nil
	}
	mode, err := ParsePolling(n.Polling)
	if err != nil {
		return err
	}
	if (mode == host.ProxyPolling || mode == host.ProxyInterrupt) && nmp.Mechanism(n.Mech) != nmp.MechDIMMLink {
		return fmt.Errorf("spec: polling %q needs the polling proxies only mech %q has; mech %q has none",
			n.Polling, nmp.MechDIMMLink, n.Mech)
	}
	return nil
}

// Canonical returns the deterministic byte encoding of the normalized
// spec: fixed key order, one key=value per line. It is the preimage of
// Hash; any change to this encoding invalidates every cached result, so
// change it deliberately.
func (s Spec) Canonical() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "kind=%s\n", n.Kind)
	switch n.Kind {
	case KindSim:
		fmt.Fprintf(&b, "mech=%s\ndimms=%d\nchannels=%d\nworkload=%s\n",
			n.Mech, n.DIMMs, n.Channels, n.Workload)
		fmt.Fprintf(&b, "scale=%d\nef=%d\niters=%d\n", n.Scale, n.EdgeFactor, n.Iters)
		fmt.Fprintf(&b, "topology=%s\nlinkbw=%s\npolling=%s\ncxl=%t\nbroadcast=%t\ncoll=%s\n",
			n.Topology, strconv.FormatFloat(n.LinkBW, 'g', -1, 64), n.Polling, n.CXL, n.Broadcast, n.Coll)
	case KindTrace:
		fmt.Fprintf(&b, "mech=%s\ndimms=%d\nchannels=%d\n", n.Mech, n.DIMMs, n.Channels)
		fmt.Fprintf(&b, "topology=%s\nlinkbw=%s\npolling=%s\ncxl=%t\n",
			n.Topology, strconv.FormatFloat(n.LinkBW, 'g', -1, 64), n.Polling, n.CXL)
		fmt.Fprintf(&b, "trace=%s\nmap=%s\npagebytes=%d\n", n.Trace, n.Map, n.PageBytes)
	case KindExp:
		fmt.Fprintf(&b, "exp=%s\nfull=%t\n", n.Exp, n.Full)
	}
	fmt.Fprintf(&b, "seed=%d\nfault=%s\nfaultseed=%d\n", n.Seed, n.Fault, n.FaultSeed)
	return b.Bytes(), nil
}

// Hash returns the spec's content address: the hex sha256 of Canonical.
// Specs that normalize identically — aliases resolved, defaults filled —
// hash identically.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// isTraceHash reports whether s looks like a canonical trace content
// address: exactly 64 lowercase hex characters.
func isTraceHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// FaultPlan parses the spec's fault plan, or returns nil when none is
// set.
func (s Spec) FaultPlan() (*fault.Plan, error) {
	if s.Fault == "" {
		return nil, nil
	}
	seed := s.FaultSeed
	if seed == 0 {
		seed = DefaultFaultSeed
	}
	return fault.ParsePlan(s.Fault, seed)
}

// Config assembles the nmp system configuration for a sim-kind spec
// (the flag wiring formerly private to cmd/dlsim).
func (s Spec) Config() (nmp.Config, error) {
	n, err := s.Normalized()
	if err != nil {
		return nmp.Config{}, err
	}
	if n.Kind != KindSim && n.Kind != KindTrace {
		return nmp.Config{}, fmt.Errorf("spec: Config on %q kind", n.Kind)
	}
	cfg := nmp.DefaultConfig(n.DIMMs, n.Channels, nmp.Mechanism(n.Mech))
	plan, err := n.FaultPlan()
	if err != nil {
		return nmp.Config{}, err
	}
	if plan != nil {
		cfg.DL.Fault = plan
	}
	cfg.DL.Topology = core.TopologyKind(n.Topology)
	cfg.DL.Link.BytesPerSec = n.LinkBW
	if n.CXL {
		cfg.DL.InterGroup = core.ViaCXL
	}
	if n.Polling != "" {
		mode, err := ParsePolling(n.Polling)
		if err != nil {
			return nmp.Config{}, err
		}
		cfg.Host = mode
	}
	cfg.CollAlgo = idc.CollAlgo(n.Coll)
	return cfg, nil
}

// BuildWorkload constructs the spec's workload instance against a built
// system (the p2p bench needs the system's DIMM count). The spec must be
// normalized or normalizable.
func (s Spec) BuildWorkload(sys *nmp.System) (workloads.Workload, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	switch n.Workload {
	case "bfs":
		return workloads.NewBFSFromGraph(workloads.Community(n.Scale, n.EdgeFactor, n.Seed)), nil
	case "hotspot":
		rows := 1 << uint(n.Scale/2)
		return workloads.NewHotspot(rows, rows, n.Iters), nil
	case "kmeans":
		return workloads.NewKMeans(1<<uint(n.Scale), 16, 16, n.Iters, n.Seed), nil
	case "nw":
		return workloads.NewNW(1<<uint(n.Scale/2+2), 64, n.Seed), nil
	case "pr":
		w := workloads.NewPageRankFromGraph(workloads.Community(n.Scale, n.EdgeFactor, n.Seed), n.Iters)
		w.Broadcast = n.Broadcast
		return w, nil
	case "sssp":
		w := workloads.NewSSSPFromGraph(workloads.Community(n.Scale, n.EdgeFactor, n.Seed))
		w.Broadcast = n.Broadcast
		return w, nil
	case "spmv":
		w := workloads.NewSpMVFromGraph(workloads.Community(n.Scale, n.EdgeFactor, n.Seed), n.Iters)
		w.Broadcast = n.Broadcast
		return w, nil
	case "tspow":
		return workloads.NewTSPow(1<<uint(n.Scale+4), 64, 4096, n.Seed), nil
	case "p2p":
		return &workloads.P2PBench{SrcDIMM: 0, DstDIMM: sys.Cfg.Geo.NumDIMMs - 1,
			TransferBytes: 4096, TotalBytes: 1 << 22}, nil
	case "sync":
		return &workloads.SyncBench{Interval: 500, Rounds: 50}, nil
	case "gemv":
		w := workloads.NewGEMV(1<<uint(n.Scale/2+2), 1<<uint(n.Scale/2), n.Iters, n.Seed)
		w.Broadcast = n.Broadcast
		return w, nil
	case "histo":
		return workloads.NewHistogram(1<<uint(n.Scale+4), 256, n.Seed), nil
	case "train":
		return workloads.NewTrain(1<<uint(n.Scale), n.Iters, 256, n.Seed), nil
	}
	return nil, fmt.Errorf("spec: unknown workload %q", n.Workload)
}

// Targets resolves an exp-kind spec's experiment selection ("all", one
// id, or a comma-separated list) against the experiment registry.
func (s Spec) Targets() ([]exp.Experiment, error) {
	if s.Exp == "all" {
		return exp.All(), nil
	}
	var targets []exp.Experiment
	for _, one := range strings.Split(s.Exp, ",") {
		e, ok := exp.ByID(strings.TrimSpace(one))
		if !ok {
			return nil, fmt.Errorf("spec: unknown experiment %q", one)
		}
		targets = append(targets, e)
	}
	return targets, nil
}

// ExpOptions builds the experiment options an exp-kind spec denotes.
// Execution policy (Jobs, Progress, Ctx) stays with the caller: it never
// affects output, so it is deliberately not part of the spec.
func (s Spec) ExpOptions(ctx context.Context, jobs int, progress func(done, total int)) (exp.Options, error) {
	n, err := s.Normalized()
	if err != nil {
		return exp.Options{}, err
	}
	if n.Kind != KindExp {
		return exp.Options{}, fmt.Errorf("spec: ExpOptions on %q kind", n.Kind)
	}
	plan, err := n.FaultPlan()
	if err != nil {
		return exp.Options{}, err
	}
	return exp.Options{
		Quick: !n.Full, Seed: n.Seed, Jobs: jobs,
		Ctx: ctx, Progress: progress, Fault: plan,
	}, nil
}

package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/idc"
	"repro/internal/metrics"
	"repro/internal/nmp"
)

// TestNormalizeDefaults checks the zero-value sim spec resolves to the
// documented defaults.
func TestNormalizeDefaults(t *testing.T) {
	n, err := Spec{Kind: KindSim}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Kind: KindSim, Mech: DefaultMech, DIMMs: DefaultDIMMs,
		Channels: DefaultChannels, Workload: DefaultWorkload,
		Scale: DefaultScale, EdgeFactor: DefaultEdgeFactor,
		Iters: DefaultIters, Topology: DefaultTopology,
		LinkBW: DefaultLinkBW, Seed: DefaultSeed, FaultSeed: DefaultFaultSeed,
	}
	if n != want {
		t.Errorf("normalized zero sim spec:\n got %+v\nwant %+v", n, want)
	}
	// Empty kind defaults to sim.
	n2, err := Spec{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Errorf("empty kind normalized differently: %+v", n2)
	}
}

// TestHashEquivalence pins the content-address soundness properties:
// specs that denote the same run hash identically, regardless of which
// alias or default spelling the caller used.
func TestHashEquivalence(t *testing.T) {
	hash := func(s Spec) string {
		t.Helper()
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	cases := []struct {
		name string
		a, b Spec
	}{
		{"zero vs explicit defaults",
			Spec{Kind: KindSim},
			Spec{Kind: KindSim, Mech: DefaultMech, DIMMs: 8, Channels: 4,
				Workload: "bfs", Scale: 14, EdgeFactor: 8, Iters: 4,
				Topology: "chain", LinkBW: 25e9, Seed: 42, FaultSeed: 1}},
		{"workload alias hs",
			Spec{Kind: KindSim, Workload: "hotspot"},
			Spec{Kind: KindSim, Workload: "hs"}},
		{"workload alias pagerank",
			Spec{Kind: KindSim, Workload: "pr"},
			Spec{Kind: KindSim, Workload: "PageRank"}},
		{"seed zero is default seed",
			Spec{Kind: KindSim, Seed: 0},
			Spec{Kind: KindSim, Seed: 42}},
		{"faultseed inert without a plan",
			Spec{Kind: KindSim, FaultSeed: 99},
			Spec{Kind: KindSim}},
		{"exp ignores sim-only fields",
			Spec{Kind: KindExp, Exp: "table1", DIMMs: 16, Workload: "pr", LinkBW: 1e9},
			Spec{Kind: KindExp, Exp: "table1"}},
		{"sim ignores exp-only fields",
			Spec{Kind: KindSim, Exp: "table1", Full: true},
			Spec{Kind: KindSim}},
	}
	for _, c := range cases {
		if ha, hb := hash(c.a), hash(c.b); ha != hb {
			t.Errorf("%s: hashes differ\n a=%s\n b=%s", c.name, ha, hb)
		}
	}
}

// TestHashSensitivity checks every output-affecting field perturbs the
// hash.
func TestHashSensitivity(t *testing.T) {
	base, err := Spec{Kind: KindSim}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]Spec{
		"mech":      {Kind: KindSim, Mech: "mcn"},
		"dimms":     {Kind: KindSim, DIMMs: 16},
		"channels":  {Kind: KindSim, Channels: 8},
		"workload":  {Kind: KindSim, Workload: "pr"},
		"scale":     {Kind: KindSim, Scale: 12},
		"ef":        {Kind: KindSim, EdgeFactor: 4},
		"iters":     {Kind: KindSim, Iters: 2},
		"topology":  {Kind: KindSim, Topology: "ring"},
		"linkbw":    {Kind: KindSim, LinkBW: 50e9},
		"polling":   {Kind: KindSim, Polling: "proxy"},
		"cxl":       {Kind: KindSim, CXL: true},
		"broadcast": {Kind: KindSim, Broadcast: true},
		"seed":      {Kind: KindSim, Seed: 7},
		"fault":     {Kind: KindSim, Fault: "ber=1e-6"},
		"kind":      {Kind: KindExp, Exp: "table1"},
	}
	seen := map[string]string{baseHash: "base"}
	for name, m := range mutations {
		h, err := m.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q hash collides with %q", name, prev)
		}
		seen[h] = name
	}
	// FaultSeed matters once a plan is present.
	fa, _ := Spec{Kind: KindSim, Fault: "ber=1e-6", FaultSeed: 1}.Hash()
	fb, _ := Spec{Kind: KindSim, Fault: "ber=1e-6", FaultSeed: 2}.Hash()
	if fa == fb {
		t.Error("faultseed did not perturb the hash of a faulted spec")
	}
}

// TestCanonicalDeterministic pins the encoding: stable across calls and
// shaped as key=value lines in fixed order.
func TestCanonicalDeterministic(t *testing.T) {
	s := Spec{Kind: KindSim, Workload: "hs", LinkBW: 12.5e9, Seed: 3}
	a, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Canonical is not deterministic")
	}
	want := "kind=sim\nmech=dimm-link\ndimms=8\nchannels=4\nworkload=hotspot\n" +
		"scale=14\nef=8\niters=4\ntopology=chain\nlinkbw=1.25e+10\npolling=\n" +
		"cxl=false\nbroadcast=false\ncoll=\nseed=3\nfault=\nfaultseed=1\n"
	if string(a) != want {
		t.Errorf("canonical encoding:\n got %q\nwant %q", a, want)
	}
}

// TestNormalizeErrors checks validation rejects bad specs.
func TestNormalizeErrors(t *testing.T) {
	bad := map[string]Spec{
		"unknown kind":       {Kind: "weird"},
		"unknown mech":       {Kind: KindSim, Mech: "quantum"},
		"unknown workload":   {Kind: KindSim, Workload: "mandelbrot"},
		"unknown topology":   {Kind: KindSim, Topology: "hypercube"},
		"unknown polling":    {Kind: KindSim, Polling: "busy"},
		"negative dimms":     {Kind: KindSim, DIMMs: -1},
		"negative linkbw":    {Kind: KindSim, LinkBW: -5},
		"bad fault plan":     {Kind: KindSim, Fault: "gibberish"},
		"exp without id":     {Kind: KindExp},
		"unknown experiment": {Kind: KindExp, Exp: "fig99"},
	}
	for name, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("%s: Normalized accepted %+v", name, s)
		}
	}
}

// TestPollingNeedsProxies checks, for the sim and trace kinds, that a
// proxy polling mode is an error naming the polling field and the
// mechanism on every mechanism but dimm-link, and that the base modes are
// accepted everywhere.
func TestPollingNeedsProxies(t *testing.T) {
	const trace = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	for _, kind := range []Kind{KindSim, KindTrace} {
		for _, mech := range []string{"dimm-link", "mcn", "aim", "abc-dimm", "host-cpu"} {
			if kind == KindTrace && mech == "host-cpu" {
				continue // rejected for having no NMP cores
			}
			for _, polling := range []string{"base", "base+itrpt", "proxy", "proxy+itrpt"} {
				s := Spec{Kind: kind, Mech: mech, Polling: polling}
				if kind == KindTrace {
					s.Trace = trace
				}
				_, err := s.Normalized()
				if strings.HasPrefix(polling, "proxy") && mech != "dimm-link" {
					if err == nil || !strings.Contains(err.Error(), `polling "`+polling+`"`) ||
						!strings.Contains(err.Error(), `mech "`+mech+`"`) {
						t.Errorf("%s %s %s: err = %v, want one naming polling and the mechanism", kind, mech, polling, err)
					}
				} else if err != nil {
					t.Errorf("%s %s %s: %v", kind, mech, polling, err)
				}
			}
		}
	}
}

// TestChannelsMustDivideDIMMs checks that a spec whose channels do not
// divide its DIMMs is an error from RunSim, not a run on a partly
// populated channel.
func TestChannelsMustDivideDIMMs(t *testing.T) {
	s := Spec{Kind: KindSim, Workload: "p2p", Mech: "abc-dimm", DIMMs: 6, Channels: 4}
	if _, err := s.RunSim(SimHooks{}); err == nil || !strings.Contains(err.Error(), "NumChannels 4 must divide NumDIMMs 6") {
		t.Fatalf("6D-4C abc-dimm: err = %v, want the channel-count error", err)
	}
}

// TestNormalizeSizeBounds checks the workload-sizing fields, the system
// shape and the link bandwidth are bounded: an out-of-range value (a
// non-finite bandwidth too) is an error naming the field, the bounds
// themselves are accepted, and zero still selects the default.
func TestNormalizeSizeBounds(t *testing.T) {
	cases := []struct {
		name  string
		s     Spec
		field string // "" = accepted
	}{
		{"scale -1", Spec{Scale: -1}, "scale"},
		{"scale 3", Spec{Scale: 3}, "scale"},
		{"kmeans scale 3", Spec{Workload: "kmeans", Scale: 3}, "scale"},
		{"scale 25", Spec{Scale: 25}, "scale"},
		{"scale 31", Spec{Scale: 31}, "scale"},
		{"kmeans scale 40", Spec{Workload: "kmeans", Scale: 40}, "scale"},
		{"ef -2", Spec{EdgeFactor: -2}, "ef"},
		{"ef 65", Spec{EdgeFactor: 65}, "ef"},
		{"iters -1", Spec{Iters: -1}, "iters"},
		{"scale 4", Spec{Scale: 4}, ""},
		{"kmeans scale 4", Spec{Workload: "kmeans", Scale: 4}, ""},
		{"scale 24", Spec{Scale: 24}, ""},
		{"ef 1", Spec{EdgeFactor: 1}, ""},
		{"ef 64", Spec{EdgeFactor: 64}, ""},
		{"iters 1", Spec{Iters: 1}, ""},
		{"dimms -1", Spec{DIMMs: -1}, "dimms"},
		{"dimms 65", Spec{DIMMs: 65, Channels: 1}, "dimms"},
		{"dimms 2^20", Spec{DIMMs: 1 << 20, Channels: 1}, "dimms"},
		{"dimms 1", Spec{DIMMs: 1, Channels: 1}, ""},
		{"dimms 64", Spec{DIMMs: 64, Channels: 8}, ""},
		{"host-cpu dimms 2^20", Spec{Mech: "host-cpu", DIMMs: 1 << 20, Channels: 1}, "dimms"},
		{"channels -1", Spec{Channels: -1}, "channels"},
		{"channels above dimms", Spec{DIMMs: 4, Channels: 8}, "channels"},
		{"default channels above dimms", Spec{DIMMs: 2}, "channels"},
		{"channels = dimms", Spec{DIMMs: 4, Channels: 4}, ""},
		{"linkbw NaN", Spec{LinkBW: math.NaN()}, "linkbw"},
		{"linkbw +Inf", Spec{LinkBW: math.Inf(1)}, "linkbw"},
		{"linkbw -Inf", Spec{LinkBW: math.Inf(-1)}, "linkbw"},
		{"linkbw -5", Spec{LinkBW: -5}, "linkbw"},
		{"linkbw 0.001", Spec{LinkBW: 0.001}, "linkbw"},
		{"linkbw 1", Spec{LinkBW: 1}, "linkbw"},
		{"linkbw 1e5", Spec{LinkBW: 1e5}, "linkbw"},
		{"linkbw below 1e9", Spec{LinkBW: math.Nextafter(1e9, 0)}, "linkbw"},
		{"linkbw above 1e12", Spec{LinkBW: math.Nextafter(1e12, math.Inf(1))}, "linkbw"},
		{"linkbw 1e9", Spec{LinkBW: 1e9}, ""},
		{"linkbw 4e9", Spec{LinkBW: 4e9}, ""},
		{"linkbw 1e12", Spec{LinkBW: 1e12}, ""},
		{"zero is default", Spec{}, ""},
	}
	for _, c := range cases {
		c.s.Kind = KindSim
		_, err := c.s.Normalized()
		switch {
		case c.field == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.field != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.field != "" && !strings.HasPrefix(err.Error(), "spec: "+c.field+" "):
			t.Errorf("%s: error %q does not name the %s field", c.name, err, c.field)
		}
	}
	// Trace and exp kinds pin the sizing fields instead of checking them;
	// the trace kind bounds its system shape like the sim kind.
	if _, err := (Spec{Kind: KindExp, Exp: "table1", Scale: -1}).Normalized(); err != nil {
		t.Errorf("exp kind checked scale: %v", err)
	}
	for _, c := range []struct {
		s     Spec
		field string
	}{
		{Spec{DIMMs: 1 << 20, Channels: 1}, "dimms"},
		{Spec{DIMMs: 0, Channels: 16}, "channels"},
		{Spec{DIMMs: 64, Channels: 64}, ""},
		{Spec{LinkBW: math.NaN()}, "linkbw"},
		{Spec{LinkBW: 1}, "linkbw"},
	} {
		c.s.Kind, c.s.Trace = KindTrace, fakeHash
		_, err := c.s.Normalized()
		if c.field == "" && err != nil || c.field != "" && (err == nil || !strings.HasPrefix(err.Error(), "spec: "+c.field+" ")) {
			t.Errorf("trace kind %+v: error %v, want one naming %q", c.s, err, c.field)
		}
	}
}

// TestTargets checks experiment selection resolution.
func TestTargets(t *testing.T) {
	all, err := Spec{Kind: KindExp, Exp: "all"}.Targets()
	if err != nil || len(all) == 0 {
		t.Fatalf("all: %d targets, err %v", len(all), err)
	}
	list, err := Spec{Kind: KindExp, Exp: "table1, fig01"}.Targets()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "table1" || list[1].ID != "fig01" {
		ids := make([]string, len(list))
		for i, e := range list {
			ids[i] = e.ID
		}
		t.Errorf("list targets: %v", ids)
	}
	if _, err := (Spec{Kind: KindExp, Exp: "table1,nope"}).Targets(); err == nil {
		t.Error("unknown id in list accepted")
	}
}

// TestExpOptions checks the options wiring, including that exp options
// reject sim-kind specs.
func TestExpOptions(t *testing.T) {
	sp := Spec{Kind: KindExp, Exp: "table1", Seed: 7, Full: true,
		Fault: "ber=1e-6", FaultSeed: 5}
	opts, err := sp.ExpOptions(nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Quick || opts.Seed != 7 || opts.Jobs != 3 || opts.Fault == nil {
		t.Errorf("options: %+v", opts)
	}
	if _, err := (Spec{Kind: KindSim}).ExpOptions(nil, 1, nil); err == nil {
		t.Error("ExpOptions accepted a sim-kind spec")
	}
}

// TestConfig spot-checks the sim config assembly formerly inlined in
// cmd/dlsim.
func TestConfig(t *testing.T) {
	sp := Spec{Kind: KindSim, DIMMs: 4, Channels: 2, Topology: "ring",
		LinkBW: 50e9, CXL: true, Polling: "proxy+itrpt",
		Fault: "ber=1e-6"}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Geo.NumDIMMs != 4 || cfg.Geo.NumChannels != 2 {
		t.Errorf("geometry: %dD-%dC", cfg.Geo.NumDIMMs, cfg.Geo.NumChannels)
	}
	if string(cfg.DL.Topology) != "ring" || cfg.DL.Link.BytesPerSec != 50e9 {
		t.Errorf("link config: topo=%s bw=%g", cfg.DL.Topology, cfg.DL.Link.BytesPerSec)
	}
	if cfg.DL.Fault == nil {
		t.Error("fault plan not wired into config")
	}
	if _, err := (Spec{Kind: KindExp, Exp: "table1"}).Config(); err == nil {
		t.Error("Config accepted an exp-kind spec")
	}
}

// TestCanonicalWorkloadCaseInsensitive checks alias lookup is
// case-insensitive (flag values arrive in user spelling).
func TestCanonicalWorkloadCaseInsensitive(t *testing.T) {
	cases := map[string]string{
		"BFS": "bfs", "HotSpot": "hotspot", "Histogram": "histo",
	}
	for in, want := range cases {
		got, err := CanonicalWorkload(in)
		if err != nil || got != want {
			t.Errorf("CanonicalWorkload(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := CanonicalWorkload(""); err == nil {
		t.Error("empty workload accepted")
	}
	if !strings.Contains(func() string {
		_, err := CanonicalWorkload("warp")
		return err.Error()
	}(), "warp") {
		t.Error("error does not name the offending workload")
	}
}

func TestCollFieldNormalization(t *testing.T) {
	if _, err := (Spec{Kind: KindSim, Coll: "butterfly"}).Normalized(); err == nil {
		t.Fatal("invalid collective algorithm accepted")
	}
	for _, algo := range []string{"", "ring", "hd", "tree"} {
		n, err := (Spec{Kind: KindSim, Coll: algo}).Normalized()
		if err != nil {
			t.Fatalf("coll=%q: %v", algo, err)
		}
		if n.Coll != algo {
			t.Fatalf("coll=%q normalized to %q", algo, n.Coll)
		}
	}
	// The algorithm is part of the content address.
	h1, _ := Spec{Kind: KindSim, Coll: "ring"}.Hash()
	h2, _ := Spec{Kind: KindSim, Coll: "tree"}.Hash()
	h3, _ := Spec{Kind: KindSim}.Hash()
	if h1 == h2 || h1 == h3 {
		t.Fatal("collective algorithm does not perturb the hash")
	}
	// Exp-kind specs zero the sim-only field.
	n, err := (Spec{Kind: KindExp, Exp: "allreduce", Coll: "ring"}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Coll != "" {
		t.Fatalf("exp spec kept coll=%q", n.Coll)
	}
	cfg, err := (Spec{Kind: KindSim, Coll: "hd"}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CollAlgo != idc.AlgoHalving {
		t.Fatalf("Config CollAlgo = %q", cfg.CollAlgo)
	}
}

func TestTrainWorkloadSpec(t *testing.T) {
	s, err := (Spec{Kind: KindSim, Workload: "train", Scale: 10, Iters: 2}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	sys := nmp.MustNewSystem(cfg)
	w, err := s.BuildWorkload(sys)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "TRAIN" {
		t.Fatalf("workload %q", w.Name())
	}
	if _, _, err := w.Run(sys, sys.DefaultPlacement(), false); err != nil {
		t.Fatal(err)
	}
}

// TestFaultOnMissingLinkIsAnError pins that a spec whose fault plan
// names a DIMM pair with no DL link between them fails with an error
// naming the event, for a sim-kind spec and for an exp-kind spec at any
// pool width, instead of running fault-free.
func TestFaultOnMissingLinkIsAnError(t *testing.T) {
	const want = "fault event 1: 0-9"
	var sim Spec
	if err := json.Unmarshal([]byte(`{"workload":"p2p","fault":"down=0-1@1us,down=0-9@1us"}`), &sim); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSim(SimHooks{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("sim spec: error %v, want one naming %q", err, want)
	}
	var ex Spec
	if err := json.Unmarshal([]byte(`{"kind":"exp","exp":"abl-payload","fault":"down=0-1@1us,down=0-9@1us"}`), &ex); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 3} {
		if _, err := ex.RunExp(nil, ExpHooks{Jobs: jobs}, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("exp spec, %d jobs: error %v, want one naming %q", jobs, err, want)
		}
	}
}

// runWithMetrics runs a sim spec with a collector attached and returns
// the run and the collector.
func runWithMetrics(t *testing.T, s Spec) (*SimRun, *metrics.Collector) {
	t.Helper()
	coll := metrics.NewCollector()
	run, err := s.RunSim(SimHooks{Metrics: coll})
	if err != nil {
		t.Fatal(err)
	}
	return run, coll
}

// TestFallbackPacketsCountInPacketLatency is the packet conservation law
// under a severed chain: every packet sendPacket delivers lands in
// pkt.lat, whether it crossed the DL links or fell back to the host. A
// dead link 1-2 from t=0 strands the 16D-8C p2p transfer's packets on
// the host path, and pkt.lat must count exactly as many packets as the
// healthy run does.
func TestFallbackPacketsCountInPacketLatency(t *testing.T) {
	base := Spec{Workload: "p2p", DIMMs: 16, Channels: 8}
	_, healthy := runWithMetrics(t, base)
	severed := base
	severed.Fault = "down=1-2@0"
	run, faulty := runWithMetrics(t, severed)
	if fb := run.Sys.IC.Counters().Get(idc.CtrFaultFallback); fb == 0 {
		t.Fatal("the severed chain sent no packet over the host fallback")
	}
	want := healthy.Reg.Hist(metrics.HistPacketLat).Count()
	if got := faulty.Reg.Hist(metrics.HistPacketLat).Count(); want == 0 || got != want {
		t.Fatalf("pkt.lat counts %d packets under down=1-2@0, %d without a plan", got, want)
	}
}

// TestFallbackBytesLeaveLinkBytes is the byte conservation law under
// faults: a packet crosses either the DL links or the host fallback, so
// link.bytes plus fault.fallback.bytes equals the healthy run's
// link.bytes, for a chain cut from the start and for the digest fault
// plan (bit errors, a link dying mid-run, a stall and a degraded lane).
func TestFallbackBytesLeaveLinkBytes(t *testing.T) {
	base := Spec{Workload: "p2p", DIMMs: 8, Channels: 4}
	healthy, err := base.RunSim(SimHooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := healthy.Sys.IC.Counters().Get(idc.CtrLinkBytes)
	for _, plan := range []string{"down=0-1@0", "ber=1e-6,down=0-1@10us,stall=2-3@5us+20us,degrade=1-2@0*0.5"} {
		faulty := base
		faulty.Fault = plan
		run, err := faulty.RunSim(SimHooks{})
		if err != nil {
			t.Fatal(err)
		}
		c := run.Sys.IC.Counters()
		link, fb := c.Get(idc.CtrLinkBytes), c.Get(idc.CtrFaultFallbackB)
		if fb == 0 || link+fb != want {
			t.Errorf("%s: link.bytes %d + fault.fallback.bytes %d, healthy link.bytes %d", plan, link, fb, want)
		}
	}
}

// TestHopBreakdownUnderInertPlan pins that an active fault plan keeps the
// per-hop latency breakdown: with a bit-error rate too small to inject
// anything, lat.relay counts exactly the hops of the fault-free run.
func TestHopBreakdownUnderInertPlan(t *testing.T) {
	base := Spec{Workload: "p2p"}
	_, healthy := runWithMetrics(t, base)
	inert := base
	inert.Fault = "ber=1e-18"
	_, faulty := runWithMetrics(t, inert)
	for _, name := range []string{metrics.HistRelay, metrics.HistSerDes, metrics.HistQueue} {
		want := healthy.Reg.Hist(name).Count()
		if got := faulty.Reg.Hist(name).Count(); want == 0 || got != want {
			t.Fatalf("%s counts %d hops under ber=1e-18, %d without a plan", name, got, want)
		}
	}
}

package spec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/idc"
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

// TestNormalizeSizeBounds checks the workload-sizing fields are bounded:
// an out-of-range value is an error naming the field, the bounds
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
	} {
		c.s.Kind, c.s.Trace = KindTrace, fakeHash
		_, err := c.s.Normalized()
		if c.field == "" && err != nil || c.field != "" && (err == nil || !strings.HasPrefix(err.Error(), "spec: "+c.field+" ")) {
			t.Errorf("trace kind %dD-%dC: error %v, want one naming %q", c.s.DIMMs, c.s.Channels, err, c.field)
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

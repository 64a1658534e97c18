package spec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cores"
	"repro/internal/ingest"
	"repro/internal/nmp"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// fakeHash is a syntactically valid trace content address for
// normalization tests that never resolve it to bytes.
var fakeHash = strings.Repeat("ab", 32)

func TestTraceKindNormalize(t *testing.T) {
	n, err := Spec{Kind: KindTrace, Trace: fakeHash}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Map != DefaultMap || n.PageBytes != DefaultPageBytes {
		t.Errorf("mapping defaults: map=%q pagebytes=%d", n.Map, n.PageBytes)
	}
	if n.Seed != DefaultSeed {
		t.Errorf("trace kind must pin the seed: got %d", n.Seed)
	}
	if n.Workload != "" || n.Scale != 0 || n.Exp != "" {
		t.Errorf("sim/exp-only fields survived normalization: %+v", n)
	}

	bad := map[string]Spec{
		"missing trace":    {Kind: KindTrace},
		"short hash":       {Kind: KindTrace, Trace: "abcd"},
		"uppercase hash":   {Kind: KindTrace, Trace: strings.ToUpper(fakeHash)},
		"host-cpu":         {Kind: KindTrace, Trace: fakeHash, Mech: "host-cpu"},
		"unknown map":      {Kind: KindTrace, Trace: fakeHash, Map: "striped"},
		"page not pow2":    {Kind: KindTrace, Trace: fakeHash, PageBytes: 1000},
		"page too small":   {Kind: KindTrace, Trace: fakeHash, PageBytes: 32},
		"unknown topology": {Kind: KindTrace, Trace: fakeHash, Topology: "hypercube"},
	}
	for name, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTraceKindHash pins the trace kind's content-address behavior: the
// hash covers exactly the fields that shape a replay (trace content,
// mapping policy, system shape) and ignores sim/exp-only fields.
func TestTraceKindHash(t *testing.T) {
	hash := func(s Spec) string {
		t.Helper()
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := Spec{Kind: KindTrace, Trace: fakeHash}
	baseHash := hash(base)

	same := map[string]Spec{
		"explicit defaults": {Kind: KindTrace, Trace: fakeHash, Map: DefaultMap, PageBytes: DefaultPageBytes},
		"sim-only fields":   {Kind: KindTrace, Trace: fakeHash, Workload: "pr", Scale: 12, Iters: 9, Seed: 7},
		"exp-only fields":   {Kind: KindTrace, Trace: fakeHash, Exp: "table1", Full: true},
	}
	for name, s := range same {
		if h := hash(s); h != baseHash {
			t.Errorf("%s: hash differs from base", name)
		}
	}
	otherTrace := strings.Repeat("cd", 32)
	diff := map[string]Spec{
		"trace":     {Kind: KindTrace, Trace: otherTrace},
		"map":       {Kind: KindTrace, Trace: fakeHash, Map: ingest.MapFirstTouch},
		"pagebytes": {Kind: KindTrace, Trace: fakeHash, PageBytes: 8192},
		"dimms":     {Kind: KindTrace, Trace: fakeHash, DIMMs: 16},
		"mech":      {Kind: KindTrace, Trace: fakeHash, Mech: "mcn"},
		"linkbw":    {Kind: KindTrace, Trace: fakeHash, LinkBW: 50e9},
	}
	for name, s := range diff {
		if h := hash(s); h == baseHash {
			t.Errorf("%s: hash did not change", name)
		}
	}
	// Trace-kind and sim-kind canonical encodings never collide.
	if hash(base) == hash(Spec{Kind: KindSim}) {
		t.Error("trace and sim hashes collide")
	}
}

// recordWorkload runs a workload on an instrumented system and returns
// the recorded trace plus the recording run's system (whose traffic
// matrix is the ground truth a replay must reproduce).
func recordWorkload(t *testing.T) (*trace.Trace, *nmp.System) {
	t.Helper()
	sys := nmp.MustNewSystem(nmp.DefaultConfig(4, 2, nmp.MechDIMMLink))
	var rec *trace.Recorder
	sys.InstrumentMemory(func(inner cores.Memory) cores.Memory {
		rec = trace.NewRecorder(inner, sys.Threads(), nmp.NMPClockHz)
		return rec
	})
	w := workloads.NewBFSFromGraph(workloads.Community(10, 8, 42))
	if _, _, err := w.Run(sys, sys.DefaultPlacement(), false); err != nil {
		t.Fatal(err)
	}
	if len(rec.Trace.Records) == 0 {
		t.Fatal("recorder captured nothing")
	}
	return &rec.Trace, sys
}

// TestReplayReproducesRecording is the record→ingest→replay identity:
// a synthetic workload's recording, round-tripped through the ingest
// encodings and replayed as a trace-kind spec on the same system shape,
// reproduces the workload's inter-DIMM traffic matrix exactly — and the
// replay's rendered report is byte-identical across encodings.
func TestReplayReproducesRecording(t *testing.T) {
	tr, recSys := recordWorkload(t)

	replay := func(format ingest.Format) (*SimRun, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := ingest.WriteTrace(&buf, tr, format); err != nil {
			t.Fatal(err)
		}
		td, err := ingest.ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sp := Spec{Kind: KindTrace, Trace: td.Hash, DIMMs: 4, Channels: 2, Map: ingest.MapDirect}
		run, err := sp.ReplayTrace(td, SimHooks{})
		if err != nil {
			t.Fatal(err)
		}
		var rep bytes.Buffer
		run.Report(&rep)
		if err := run.WriteTrafficCSV(&rep); err != nil {
			t.Fatal(err)
		}
		return run, rep.Bytes()
	}

	run, report := replay(ingest.FormatText)
	if !run.Sys.Traffic.Equal(recSys.Traffic) {
		t.Errorf("replayed traffic matrix differs from the recording run's:\nreplay total %d, recording total %d",
			run.Sys.Traffic.Total(), recSys.Traffic.Total())
	}
	if _, binReport := replay(ingest.FormatBinary); !bytes.Equal(report, binReport) {
		t.Error("binary-encoded ingest produced a different report than text")
	}
}

// TestTrafficCSVShape sanity-checks the report layout for a synthetic
// workload run: a DIMMs×DIMMs matrix header and one demand row per
// directed link.
func TestTrafficCSVShape(t *testing.T) {
	run, err := Spec{Kind: KindSim, Workload: "bfs", Scale: 10, DIMMs: 4, Channels: 2}.RunSim(SimHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := run.WriteTrafficCSV(&csv); err != nil {
		t.Fatal(err)
	}
	s := csv.String()
	if !strings.HasPrefix(s, `src\dst,0,1,2,3`+"\n") {
		t.Errorf("matrix header missing:\n%s", s)
	}
	if !strings.Contains(s, "link,bytes,capacity_bytes,demand,utilization") {
		t.Errorf("link section missing:\n%s", s)
	}
	if run.Sys.Traffic.Total() == 0 {
		t.Error("bfs produced no inter-DIMM traffic")
	}
}

// TestReplayTraceHashMismatch: the spec↔data binding is enforced.
func TestReplayTraceHashMismatch(t *testing.T) {
	tr, _ := recordWorkload(t)
	var buf bytes.Buffer
	if err := ingest.WriteTrace(&buf, tr, ingest.FormatText); err != nil {
		t.Fatal(err)
	}
	td, err := ingest.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Kind: KindTrace, Trace: fakeHash, DIMMs: 4, Channels: 2}
	if _, err := sp.ReplayTrace(td, SimHooks{}); err == nil {
		t.Fatal("hash mismatch accepted")
	}
}

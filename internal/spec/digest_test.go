// digest_test.go pins the model's output bytes for one captured spec per
// distinct code path the event kernel drives. The sha256 of each rendered
// report and JSON body, and of the fig01, fig14 and table5 quick-mode
// tables, is committed under testdata/report_digests.txt: a change that
// keeps every digest
// preserves the model's behaviour by construction, whatever it does to
// how the model executes.
package spec

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/exp"
)

// digestSpecs is the workload table: intra-group traffic, broadcast
// trees, every mechanism's interconnect, a multi-group topology, the
// fault layer (DLL retries, reroutes and host fallback all ride the event
// engine), and each host set-up: ABC-DIMM's channel broadcast on 12D-4C,
// the host-CPU baseline, base polling of every DIMM, CXL blades that the
// host never polls, and the two interrupt modes (the only readers of the
// interrupt latency): a proxy raising ALERT_N, and MCN's channel scan.
func digestSpecs() []Spec {
	return []Spec{
		{Kind: KindSim, Workload: "p2p", DIMMs: 4, Channels: 2},
		{Kind: KindSim, Workload: "sync", DIMMs: 8, Channels: 4},
		{Kind: KindSim, Workload: "bfs", Scale: 10, DIMMs: 8, Channels: 4},
		{Kind: KindSim, Workload: "pr", Scale: 10, Iters: 2, Broadcast: true, DIMMs: 8, Channels: 4},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, Mech: "mcn"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, Mech: "aim"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 16, Channels: 8, Topology: "ring"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4,
			Fault: "ber=1e-6,down=0-1@10us,stall=2-3@5us+20us,degrade=1-2@0*0.5"},
		{Kind: KindSim, Workload: "pr", Scale: 10, Iters: 2, Broadcast: true, DIMMs: 12, Channels: 4, Mech: "abc-dimm"},
		{Kind: KindSim, Workload: "bfs", Scale: 10, Mech: "host-cpu"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, Polling: "base"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, CXL: true},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, Polling: "proxy+itrpt"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, Mech: "mcn", Polling: "base+itrpt"},
	}
}

// specName is a digest spec's subtest name; the testing package suffixes
// repeats (#01, ...).
func specName(sp Spec) string {
	name := sp.Workload + "-" + sp.Mech
	if sp.Fault != "" {
		name += "-fault"
	}
	return name
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// specDigests runs one digest spec and returns the sha256 of its report
// text and JSON body.
func specDigests(t *testing.T, sp Spec) (text, js string) {
	t.Helper()
	text, js, err := renderDigests(sp)
	if err != nil {
		t.Fatal(err)
	}
	return text, js
}

// renderDigests is specDigests for goroutines other than the test's own,
// which must not call t.Fatal.
func renderDigests(sp Spec) (text, js string, err error) {
	run, err := sp.RunSim(SimHooks{})
	if err != nil {
		return "", "", err
	}
	var buf bytes.Buffer
	run.Report(&buf)
	body, err := run.JSON()
	if err != nil {
		return "", "", fmt.Errorf("JSON: %w", err)
	}
	return digest(buf.Bytes()), digest(body), nil
}

// expDigest renders experiment id's quick tables and returns their sha256.
func expDigest(t *testing.T, id string) string {
	t.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	o := exp.Options{Quick: true, Seed: 42}
	o.Jobs = 2
	var buf bytes.Buffer
	for _, tb := range e.Run(o) {
		tb.Render(&buf)
	}
	return digest(buf.Bytes())
}

// readDigests parses the committed digest file into name -> sha256.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/report_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// digestExps are the experiments whose quick tables are pinned: fig01's
// host-forwarding calibration, fig14's barrier comparison, the only
// run of centralized DIMM-Link synchronization, and table5's rendering of
// the evaluated system (cores, clocks, windows, caches and group count),
// which runs no simulation.
var digestExps = []string{"fig01", "fig14", "table5"}

// TestReportDigests checks every spec class, one subtest each, and the
// digestExps tables against the committed file. On a mismatch it prints the
// full replacement file, so a deliberate model change can re-record it
// in one step.
func TestReportDigests(t *testing.T) {
	want := readDigests(t)
	var file strings.Builder
	check := func(t *testing.T, name, got string) {
		fmt.Fprintf(&file, "%s %s\n", name, got)
		if want[name] != got {
			t.Errorf("%s: sha256 %s, committed %q", name, got, want[name])
		}
	}
	specs := digestSpecs()
	for i, sp := range specs {
		t.Run(specName(sp), func(t *testing.T) {
			text, js := specDigests(t, sp)
			check(t, fmt.Sprintf("spec%d.text", i), text)
			check(t, fmt.Sprintf("spec%d.json", i), js)
		})
	}
	for _, id := range digestExps {
		t.Run(id, func(t *testing.T) { check(t, id+".tables", expDigest(t, id)) })
	}
	if n := 2*len(specs) + len(digestExps); len(want) != n {
		t.Errorf("committed file has %d digests, want %d", len(want), n)
	}
	if t.Failed() {
		t.Logf("computed digests:\n%s", file.String())
	}
}

package exp

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// renderRegistry runs the given registered experiment with the given job
// count and returns its concatenated rendered tables.
func renderRegistry(t *testing.T, id string, jobs int) []byte {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	o := Options{Quick: true, Seed: 42}
	o.Jobs = jobs
	var buf bytes.Buffer
	for _, tb := range e.Run(o) {
		tb.Render(&buf)
	}
	return buf.Bytes()
}

// renderFig10Grid measures every P2P workload x mechanism on 8D-4C,
// including the profile-then-rerun dl-opt pipeline, and returns the rows
// with their rendered table.
func renderFig10Grid(jobs int) ([]fig10Row, []byte) {
	o := Options{Quick: true, Seed: 42}
	o.Jobs = jobs
	rows := fig10Measure(o, []sysConfig{{"8D-4C", 8, 4}}, nil)
	tb := stats.NewTable("fig10 grid", "workload",
		"mcn", "aim", "dl-base", "dl-opt", "idc:mcn", "idc:aim", "idc:dl-base", "idc:dl-opt")
	for _, r := range rows {
		tb.Addf(r.workload,
			r.speedups["mcn"], r.speedups["aim"], r.speedups["dl-base"], r.speedups["dl-opt"],
			r.idcRatio["mcn"], r.idcRatio["aim"], r.idcRatio["dl-base"], r.idcRatio["dl-opt"])
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	return rows, buf.Bytes()
}

var fig10Serial struct {
	once   sync.Once
	rows   []fig10Row
	serial []byte
}

// serialFig10Grid renders the fig10 grid at jobs=1 once per test binary, so
// TestDeterministicAggregation and TestFig10QuickShape share one measurement.
// Callers must not modify the returned rows.
func serialFig10Grid() ([]fig10Row, []byte) {
	fig10Serial.once.Do(func() { fig10Serial.rows, fig10Serial.serial = renderFig10Grid(1) })
	return fig10Serial.rows, fig10Serial.serial
}

// readTableDigests parses the committed digest file into name -> sha256.
func readTableDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/table_digests.txt")
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

// TestDeterministicAggregation is the regression test behind the `-jobs`
// flag's contract and the model's output bytes. Each grid renders once at
// jobs=1, and the sha256 of its tables must equal the digest committed in
// testdata/table_digests.txt: a mismatch means the model's output changed
// (or the simulator is nondeterministic, as a map-ordered barrier in the
// DIMM-Link sync path once was). It then renders at jobs=4 and must give
// the same bytes; a mismatch there means the job engine's aggregation
// leaks scheduling order. On a digest mismatch the test logs the full
// replacement file.
func TestDeterministicAggregation(t *testing.T) {
	want := readTableDigests(t)
	var file strings.Builder
	check := func(t *testing.T, name string, serial []byte) {
		sum := sha256.Sum256(serial)
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&file, "%s %s\n", name, got)
		if want[name] != got {
			t.Errorf("%s: sha256 %s, committed %q; tables:\n%s", name, got, want[name], serial)
		}
	}
	defer func() {
		if t.Failed() {
			t.Logf("computed digests:\n%s", file.String())
		}
	}()

	// Registry covers cheap experiments end to end through the public Run
	// path the CLI uses.
	t.Run("Registry", func(t *testing.T) {
		ids := []string{"table1", "abl-payload"}
		if !testing.Short() {
			ids = append(ids, "abl-credits")
		}
		for _, id := range ids {
			serial := renderRegistry(t, id, 1)
			check(t, id+".tables", serial)
			if parallel := renderRegistry(t, id, 4); !bytes.Equal(serial, parallel) {
				t.Errorf("%s: jobs=1 and jobs=4 rendered different tables:\n%s\n---\n%s", id, serial, parallel)
			}
		}
	})

	// Fig10Grid is the representative full measurement grid; its serial
	// render is shared with TestFig10QuickShape, which checks its rows.
	t.Run("Fig10Grid", func(t *testing.T) {
		if testing.Short() {
			t.Skip("fig10 grid skipped in -short mode")
		}
		_, serial := serialFig10Grid()
		check(t, "fig10-8D-4C.grid", serial)
		if _, parallel := renderFig10Grid(4); !bytes.Equal(serial, parallel) {
			t.Fatalf("serial and jobs=4 fig10 grids differ:\n%s\n---\n%s", serial, parallel)
		}
	})
}

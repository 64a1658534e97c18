package exp

import (
	"bytes"
	"testing"

	"repro/internal/stats"
)

// renderRegistry runs the given registered experiments with the given job
// count and returns the concatenated rendered tables.
func renderRegistry(t *testing.T, ids []string, jobs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		o := Options{Quick: true, Seed: 42}
		o.Jobs = jobs
		for _, tb := range e.Run(o) {
			tb.Render(&buf)
		}
	}
	return buf.Bytes()
}

// TestDeterministicAggregation is the determinism regression test behind the
// `-jobs` flag's contract: the same seed must render byte-identical
// stats.Table output whether the grid runs twice serially or fanned across
// four workers. A serial/serial mismatch means the simulator itself is
// nondeterministic (as a map-ordered barrier in the DIMM-Link sync path once
// was); a serial/parallel mismatch means the job engine's aggregation leaks
// scheduling order.
func TestDeterministicAggregation(t *testing.T) {
	// Registry covers cheap experiments end-to-end through the public Run
	// path, in every mode.
	t.Run("Registry", func(t *testing.T) {
		ids := []string{"table1", "abl-payload"}
		if !testing.Short() {
			ids = append(ids, "abl-dll")
		}
		serial1 := renderRegistry(t, ids, 1)
		serial2 := renderRegistry(t, ids, 1)
		if !bytes.Equal(serial1, serial2) {
			t.Fatalf("two serial runs rendered different tables:\n%s\n---\n%s", serial1, serial2)
		}
		parallel := renderRegistry(t, ids, 4)
		if !bytes.Equal(serial1, parallel) {
			t.Fatalf("jobs=1 and jobs=4 rendered different tables:\n%s\n---\n%s", serial1, parallel)
		}
	})

	// Fig10Grid exercises the representative full measurement grid — every
	// P2P workload x mechanism on 8D-4C, including the profile-then-rerun
	// dl-opt pipeline — on the same three-way comparison.
	t.Run("Fig10Grid", func(t *testing.T) {
		if testing.Short() {
			t.Skip("fig10 grid (~1 min) skipped in -short mode")
		}
		render := func(jobs int) []byte {
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
			return buf.Bytes()
		}
		serial1 := render(1)
		serial2 := render(1)
		if !bytes.Equal(serial1, serial2) {
			t.Fatalf("two serial fig10 grids differ:\n%s\n---\n%s", serial1, serial2)
		}
		parallel := render(4)
		if !bytes.Equal(serial1, parallel) {
			t.Fatalf("serial and jobs=4 fig10 grids differ:\n%s\n---\n%s", serial1, parallel)
		}
	})
}

package exp

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestLatencyTablesShape smoke-runs the latency experiment and checks the
// observability layer end to end: percentile columns populated, link
// utilization in range, and the sampled peak at least the time-average.
func TestLatencyTablesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency suite (~1 min) skipped in -short mode")
	}
	o := Options{Quick: true, Seed: 42}
	o.SamplePeriod = 10 * sim.Microsecond
	outs := runJobs(o, 1, func(int) latOut {
		return latencyRun(o, p2pBuilders(o.sizes(), o.Seed)[1](), sysConfig{"8D-4C", 8, 4})
	})
	r := outs[0]
	if r.pktP50 <= 0 || r.pktP99 < r.pktP95 || r.pktP95 < r.pktP50 {
		t.Errorf("packet percentiles not ordered: p50=%v p95=%v p99=%v", r.pktP50, r.pktP95, r.pktP99)
	}
	if r.accP50 <= 0 || r.accP99 < r.accP50 {
		t.Errorf("access percentiles wrong: p50=%v p99=%v", r.accP50, r.accP99)
	}
	if r.links == 0 {
		t.Error("no links reported")
	}
	if r.utilMean < 0 || r.utilMax > 1 || r.utilMean > r.utilMax {
		t.Errorf("utilization out of range: mean=%v max=%v", r.utilMean, r.utilMax)
	}
	if r.utilPeak <= 0 || r.utilPeak > 1 {
		t.Errorf("sampled peak utilization %v out of (0, 1]", r.utilPeak)
	}
	if r.serdesNs <= 0 || r.relayNs <= 0 {
		t.Errorf("breakdown means not populated: serdes=%v relay=%v", r.serdesNs, r.relayNs)
	}
}

// TestLatencyJobsDeterminism pins the new experiment to the engine's
// determinism contract: instrumented runs carry per-job collectors and
// must render byte-identical tables at any worker count.
func TestLatencyJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("latency determinism grid skipped in -short mode")
	}
	serial := renderRegistry(t, []string{"latency"}, 1)
	parallel := renderRegistry(t, []string{"latency"}, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("jobs=1 and jobs=4 rendered different latency tables:\n%s\n---\n%s", serial, parallel)
	}
}

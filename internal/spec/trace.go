// trace.go runs trace-kind specs (external traces ingested through
// internal/ingest) and renders the traffic-matrix report available to
// every simulation run.
package spec

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/nmp"
	"repro/internal/trace"
)

// ReplayTrace runs a trace-kind spec against an ingested trace: the
// spec's mapping policy translates the trace's raw addresses onto the
// simulated DIMMs, and trace.Replay drives the NMP cores through the
// standard kernel path. The ingested trace's canonical hash must match
// the spec's content address — the caller resolves the hash to bytes
// (local file, blob store), this function verifies the binding.
//
// ReplayTrace consumes td: it maps td.Records in place, so the trace is
// held once. If it returns an error, td may be partly mapped; ingest a
// fresh Data to replay the trace again.
func (s Spec) ReplayTrace(td *ingest.Data, h SimHooks) (*SimRun, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if n.Kind != KindTrace {
		return nil, fmt.Errorf("spec: ReplayTrace on %q kind", n.Kind)
	}
	if td.Hash != n.Trace {
		return nil, fmt.Errorf("spec: trace content hash %s does not match spec trace %s", td.Hash, n.Trace)
	}
	if td.Threads <= 0 {
		return nil, fmt.Errorf("spec: trace declares %d threads", td.Threads)
	}
	cfg, err := n.Config()
	if err != nil {
		return nil, err
	}
	cfg.Metrics = h.Metrics
	sys, err := nmp.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if h.Metrics != nil && h.SamplePeriod > 0 {
		sys.StartSampler(h.SamplePeriod)
	}
	placement := sys.DefaultPlacement()
	mapper, err := ingest.NewMapper(n.Map, uint64(n.PageBytes), cfg.Geo)
	if err != nil {
		return nil, err
	}
	// Map every record up front, in place (the page-table policies are
	// stateful, so mapping order is trace order, not replay order).
	for i := range td.Records {
		rec := &td.Records[i]
		addr, err := mapper.Map(placement[rec.Thread%len(placement)], rec.Addr, rec.Size)
		if err != nil {
			return nil, fmt.Errorf("spec: trace record %d (%s mapping): %v", i, n.Map, err)
		}
		rec.Addr = addr
	}
	rp := &trace.Replay{T: &trace.Trace{Threads: td.Threads, Records: td.Records}}
	res, _, err := rp.Run(sys, placement, false)
	if err != nil {
		return nil, err
	}
	// The report checksum is the head of the trace's canonical hash: it
	// binds the rendered bytes to the exact trace content.
	sum, err := hex.DecodeString(n.Trace[:16])
	if err != nil {
		return nil, err
	}
	return &SimRun{Spec: n, Sys: sys, W: rp, Res: res,
		Checksum: binary.BigEndian.Uint64(sum)}, nil
}

// WriteTrafficCSV renders the run's inter-DIMM traffic report: the
// src×dst byte matrix as a CSV heatmap, then (for DIMM-Link systems) a
// blank line and one demand-vs-capacity row per directed link. The
// matrix section depends only on the access stream, so it is identical
// between a workload run and a replay of that run's recording; the link
// rows fold in timing (capacity = link bandwidth × makespan).
func (r *SimRun) WriteTrafficCSV(w io.Writer) error {
	tm := r.Sys.Traffic
	if tm == nil {
		tm = metrics.NewTraffic(r.Sys.Cfg.Geo.NumDIMMs)
	}
	if err := tm.WriteCSV(w); err != nil {
		return err
	}
	if r.Sys.Link == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\nlink,bytes,capacity_bytes,demand,utilization\n"); err != nil {
		return err
	}
	secs := float64(r.Res.Makespan) / 1e12 // sim.Time is picoseconds
	for gi, net := range r.Sys.Link.Networks() {
		capacity := net.Config().BytesPerSec * secs
		for i, key := range net.LinkKeys() {
			carried := net.LinkBytesAt(i)
			demand := 0.0
			if capacity > 0 {
				demand = float64(carried) / capacity
			}
			if _, err := fmt.Fprintf(w, "g%d %s,%d,%.0f,%.6f,%.6f\n",
				gi, key, carried, capacity, demand,
				net.LinkUtilizationAt(i, r.Res.Makespan)); err != nil {
				return err
			}
		}
	}
	return nil
}

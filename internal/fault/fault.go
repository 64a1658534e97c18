// Package fault defines seeded, deterministic link-fault plans for the
// DIMM-Link interconnect simulator.
//
// A Plan describes what goes wrong on the external SerDes cables: a
// uniform per-link bit-error rate plus scheduled events — transient
// stalls, permanent link-down, degraded-lane operation at a fraction of
// nominal bandwidth. Plans are pure data and safe to share across
// parallel experiment jobs; the mutable per-run state lives in an
// Injector, which each simulated system builds privately.
//
// Every random decision (does this crossing corrupt? does it drop?) is a
// splitmix64 hash of (plan seed, link endpoints, per-link packet
// ordinal), the same counter-based scheme internal/exp uses for job
// seeding. Nothing depends on global PRNG state or goroutine schedule,
// so a run renders byte-identically for any `-jobs` value.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a scheduled fault event.
type Kind int

const (
	// KindDown removes the link permanently at Event.At.
	KindDown Kind = iota
	// KindStall makes the link unusable during [At, At+Dur); traffic
	// arriving inside the window waits for it to clear.
	KindStall
	// KindDegrade runs the link at Factor of nominal bandwidth from
	// Event.At onward (a lane failure narrowing the cable).
	KindDegrade
)

func (k Kind) String() string {
	switch k {
	case KindDown:
		return "down"
	case KindStall:
		return "stall"
	case KindDegrade:
		return "degrade"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault on the bidirectional link between DIMMs
// A and B (global DIMM IDs, order irrelevant).
type Event struct {
	A, B   int
	Kind   Kind
	At     sim.Time
	Dur    sim.Time // KindStall only: window length
	Factor float64  // KindDegrade only: remaining bandwidth fraction in (0,1]
}

// Plan is a complete, immutable fault specification for one run.
// The zero value (and nil) is the perfect physical layer.
type Plan struct {
	// Seed drives every per-crossing random draw. Two runs with the
	// same plan are bit-identical.
	Seed int64
	// BER is the per-bit error probability on every link.
	BER float64
	// Events are scheduled link faults.
	Events []Event
}

// The fault plan's bounds. The host polls every 100 ns of simulated time,
// so wall time grows with the simulated span a plan forces and with how
// far it slows a link: a 1000 s stall, or a link slowed a billionfold,
// holds one run for hours of wall time. Every plan the experiments use
// fits with room to spare (latest event 1 ms, slowest link at half speed).
const (
	maxEventTime   = sim.Second // latest event time and longest stall
	minDegradeFrac = 0.01       // slowest degraded link, as a fraction of nominal
)

// Active reports whether the plan injects anything at all. An inactive
// plan leaves the simulator on the exact pre-fault code path, so its
// output is byte-identical to a run with no plan.
func (p *Plan) Active() bool {
	return p != nil && (p.BER > 0 || len(p.Events) > 0)
}

// Validate checks field ranges. It does not know the topology: whether
// A-B is a real link is checked when the DIMM-Link interconnect is built
// (core.NewLink), which rejects an event on any other pair.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.BER < 0 || p.BER >= 1 {
		return fmt.Errorf("fault: BER %g outside [0,1)", p.BER)
	}
	if math.IsNaN(p.BER) {
		return fmt.Errorf("fault: BER is NaN")
	}
	for i, e := range p.Events {
		if e.A < 0 || e.B < 0 {
			return fmt.Errorf("fault: event %d: negative DIMM id %d-%d", i, e.A, e.B)
		}
		if e.A == e.B {
			return fmt.Errorf("fault: event %d: link %d-%d is a self-loop", i, e.A, e.B)
		}
		if e.At > maxEventTime {
			return fmt.Errorf("fault: event %d (%s): time %d ns is past the %d s bound", i, e, e.At/sim.Nanosecond, maxEventTime/sim.Second)
		}
		switch e.Kind {
		case KindStall:
			if e.Dur == 0 {
				return fmt.Errorf("fault: event %d: stall with zero duration", i)
			}
			if e.Dur > maxEventTime {
				return fmt.Errorf("fault: event %d (%s): stall of %d ns is past the %d s bound", i, e, e.Dur/sim.Nanosecond, maxEventTime/sim.Second)
			}
		case KindDegrade:
			if !(e.Factor > 0 && e.Factor <= 1) {
				return fmt.Errorf("fault: event %d: degrade factor %g outside (0,1]", i, e.Factor)
			}
			if e.Factor < minDegradeFrac {
				return fmt.Errorf("fault: event %d (%s): degrade factor %g is below the %g bound", i, e, e.Factor, minDegradeFrac)
			}
		case KindDown:
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// String renders the plan back in ParsePlan's spec syntax.
func (p *Plan) String() string {
	if !p.Active() {
		return "none"
	}
	var parts []string
	if p.BER > 0 {
		parts = append(parts, fmt.Sprintf("ber=%g", p.BER))
	}
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ",")
}

// String renders the event as one ParsePlan clause.
func (e Event) String() string {
	switch e.Kind {
	case KindStall:
		return fmt.Sprintf("stall=%d-%d@%dns+%dns", e.A, e.B, e.At/sim.Nanosecond, e.Dur/sim.Nanosecond)
	case KindDegrade:
		return fmt.Sprintf("degrade=%d-%d@%dns*%g", e.A, e.B, e.At/sim.Nanosecond, e.Factor)
	}
	return fmt.Sprintf("down=%d-%d@%dns", e.A, e.B, e.At/sim.Nanosecond)
}

// ParsePlan parses the comma-separated spec syntax used by the CLI
// `-fault` flags:
//
//	ber=1e-9                 uniform per-bit error rate on every link
//	down=2-3@1ms             link DIMM2-DIMM3 dies permanently at t=1ms
//	stall=0-1@50us+10us      link 0-1 stalls for 10us starting at t=50us
//	degrade=4-5@0*0.5        link 4-5 runs at half bandwidth from t=0
//
// Times accept ns/us/ms/s suffixes (bare numbers are nanoseconds).
// The seed feeds every random draw made under the plan.
func ParsePlan(spec string, seed int64) (*Plan, error) {
	p := &Plan{Seed: seed}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		switch key {
		case "ber":
			ber, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad BER %q: %v", val, err)
			}
			p.BER = ber
		case "down", "stall", "degrade":
			e, err := parseEvent(key, val)
			if err != nil {
				return nil, err
			}
			p.Events = append(p.Events, e)
		default:
			return nil, fmt.Errorf("fault: unknown clause %q (want ber/down/stall/degrade)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseEvent parses the "A-B@TIME", "A-B@TIME+DUR" or "A-B@TIME*FACTOR"
// tail of an event clause.
func parseEvent(kind, val string) (Event, error) {
	link, rest, ok := strings.Cut(val, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: %s=%q missing @time", kind, val)
	}
	as, bs, ok := strings.Cut(link, "-")
	if !ok {
		return Event{}, fmt.Errorf("fault: %s=%q link must be A-B", kind, val)
	}
	a, errA := strconv.Atoi(strings.TrimSpace(as))
	b, errB := strconv.Atoi(strings.TrimSpace(bs))
	if errA != nil || errB != nil {
		return Event{}, fmt.Errorf("fault: %s=%q has non-integer DIMM ids", kind, val)
	}
	e := Event{A: a, B: b}
	switch kind {
	case "down":
		e.Kind = KindDown
		at, err := parseTime(rest)
		if err != nil {
			return Event{}, fmt.Errorf("fault: %s=%q: %v", kind, val, err)
		}
		e.At = at
	case "stall":
		e.Kind = KindStall
		ats, durs, ok := strings.Cut(rest, "+")
		if !ok {
			return Event{}, fmt.Errorf("fault: stall=%q wants @time+duration", val)
		}
		at, err := parseTime(ats)
		if err != nil {
			return Event{}, fmt.Errorf("fault: stall=%q: %v", val, err)
		}
		dur, err := parseTime(durs)
		if err != nil {
			return Event{}, fmt.Errorf("fault: stall=%q: %v", val, err)
		}
		e.At, e.Dur = at, dur
	case "degrade":
		e.Kind = KindDegrade
		ats, fs, ok := strings.Cut(rest, "*")
		if !ok {
			return Event{}, fmt.Errorf("fault: degrade=%q wants @time*factor", val)
		}
		at, err := parseTime(ats)
		if err != nil {
			return Event{}, fmt.Errorf("fault: degrade=%q: %v", val, err)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(fs), 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: degrade=%q bad factor: %v", val, err)
		}
		e.At, e.Factor = at, f
	}
	return e, nil
}

// parseTime parses a simulated-time literal with an optional ns/us/ms/s
// suffix; bare numbers are nanoseconds. The value is rounded to the
// simulator's picosecond tick and must then be a whole number of ns:
// Plan.String renders times in ns, so a finer time would not survive the
// round trip (a 0.1 ns stall would print as a zero-length one).
func parseTime(lit string) (sim.Time, error) {
	lit = strings.TrimSpace(lit)
	s, unit := lit, sim.Nanosecond
	switch {
	case strings.HasSuffix(s, "ns"):
		s = strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		s, unit = strings.TrimSuffix(s, "us"), sim.Microsecond
	case strings.HasSuffix(s, "ms"):
		s, unit = strings.TrimSuffix(s, "ms"), sim.Millisecond
	case strings.HasSuffix(s, "s"):
		s, unit = strings.TrimSuffix(s, "s"), sim.Second
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	ps := math.Round(v * float64(unit))
	if err != nil || v < 0 || !(ps < 1<<64) {
		return 0, fmt.Errorf("bad time %q", s)
	}
	if math.Mod(ps, float64(sim.Nanosecond)) != 0 {
		return 0, fmt.Errorf("time %q is not a whole number of ns", lit)
	}
	return sim.Time(ps), nil
}

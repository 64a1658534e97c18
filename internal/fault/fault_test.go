package fault

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("ber=1e-6, down=2-3@1ms, stall=0-1@50us+10us, degrade=4-5@0*0.5", 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.BER != 1e-6 || len(p.Events) != 3 {
		t.Fatalf("parsed %+v", p)
	}
	down, stall, deg := p.Events[0], p.Events[1], p.Events[2]
	if down.Kind != KindDown || down.A != 2 || down.B != 3 || down.At != sim.Millisecond {
		t.Errorf("down event %+v", down)
	}
	if stall.Kind != KindStall || stall.At != 50*sim.Microsecond || stall.Dur != 10*sim.Microsecond {
		t.Errorf("stall event %+v", stall)
	}
	if deg.Kind != KindDegrade || deg.At != 0 || deg.Factor != 0.5 {
		t.Errorf("degrade event %+v", deg)
	}
	if !p.Active() {
		t.Error("plan with events should be active")
	}
}

func TestParsePlanBareNanoseconds(t *testing.T) {
	p, err := ParsePlan("down=0-1@250", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Events[0].At != 250*sim.Nanosecond {
		t.Errorf("bare time parsed as %d ps, want 250ns", p.Events[0].At)
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"ber=nope",
		"ber=1.5",           // out of range
		"down=0-0@1ms",      // self loop
		"down=5@1ms",        // missing endpoint
		"stall=0-1@1ms",     // missing duration
		"degrade=0-1@0*1.5", // factor out of range
		"degrade=0-1@0*0",   // factor out of range
		"flood=0-1@0",       // unknown clause
		"ber",               // not key=value
		"down=a-b@1ms",      // non-integer ids
		"stall=0-1@0+.1",    // sub-ns duration
		"down=0-1@1.5ns",    // sub-ns time
		"down=0-1@inf",      // time out of range
		// Past the plan's bounds: event times and stalls of at most 1 s,
		// degrade factors of at least 0.01.
		"stall=0-1@0+1000000000us",   // stall longer than 1 s
		"stall=0-1@1.000000001s+1ns", // stall later than 1 s
		"down=0-1@2s",                // event later than 1 s
		"degrade=0-1@0*1e-9",         // link slowed below 1%
		"degrade=0-1@0*0.0099",       // link slowed below 1%
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec, 1); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid spec", spec)
		}
	}
}

// TestPlanBounds checks that a plan at its bounds parses and that a
// rejection past them names the offending event.
func TestPlanBounds(t *testing.T) {
	for _, spec := range []string{"stall=0-1@1s+1s", "degrade=0-1@1000ms*0.01", "down=0-1@1s"} {
		if _, err := ParsePlan(spec, 1); err != nil {
			t.Errorf("ParsePlan(%q) at the bounds: %v", spec, err)
		}
	}
	_, err := ParsePlan("down=0-1@10us,degrade=2-3@0*1e-9", 1)
	if err == nil || !strings.Contains(err.Error(), "event 1 (degrade=2-3@0ns*1e-09)") {
		t.Fatalf("err = %v, want one naming event 1, degrade=2-3", err)
	}
}

func TestInactivePlan(t *testing.T) {
	var p *Plan
	if p.Active() {
		t.Error("nil plan active")
	}
	if (&Plan{Seed: 3}).Active() {
		t.Error("zero plan active")
	}
	if in := NewInjector(&Plan{Seed: 3}); in != nil {
		t.Error("inactive plan built an injector")
	}
	// A nil injector answers every query with "no fault".
	var in *Injector
	if in.Down(0, 1, 0) || in.AnyDown(0) || in.Factor(0, 1, 0) != 1 ||
		in.StallClear(0, 1, 5) != 5 || in.Verdict(0, 1, 0, 256) != VerdictOK {
		t.Error("nil injector injected a fault")
	}
}

func TestDownAndForceDown(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Events: []Event{{A: 2, B: 3, Kind: KindDown, At: 100}}})
	if in.Down(2, 3, 99) {
		t.Error("down before scheduled time")
	}
	if !in.Down(2, 3, 100) || !in.Down(3, 2, 100) {
		t.Error("down not symmetric or not effective at scheduled time")
	}
	if !in.AnyDown(100) || in.AnyDown(99) {
		t.Error("AnyDown disagrees with Down")
	}
	// ForceDown on a fresh link takes effect and is idempotent; an
	// earlier death time wins.
	in.ForceDown(0, 1, 500)
	if !in.Down(1, 0, 500) || in.Down(0, 1, 499) {
		t.Error("ForceDown not applied")
	}
	in.ForceDown(0, 1, 400)
	if in.Down(0, 1, 399) || !in.Down(0, 1, 400) {
		t.Error("earlier ForceDown should win")
	}
}

func TestStallClear(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Events: []Event{
		{A: 0, B: 1, Kind: KindStall, At: 100, Dur: 50},
		{A: 0, B: 1, Kind: KindStall, At: 140, Dur: 60}, // overlaps the first
	}})
	if got := in.StallClear(0, 1, 99); got != 99 {
		t.Errorf("before window: %d", got)
	}
	// Inside the first window the clear time must chain through the
	// overlapping second window.
	if got := in.StallClear(1, 0, 120); got != 200 {
		t.Errorf("overlapping windows cleared at %d, want 200", got)
	}
	if got := in.StallClear(0, 1, 200); got != 200 {
		t.Errorf("at window end: %d", got)
	}
}

func TestDegradeFactor(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Events: []Event{
		{A: 0, B: 1, Kind: KindDegrade, At: 100, Factor: 0.5},
		{A: 0, B: 1, Kind: KindDegrade, At: 200, Factor: 0.25},
	}})
	if f := in.Factor(0, 1, 50); f != 1 {
		t.Errorf("factor before events: %g", f)
	}
	if f := in.Factor(1, 0, 150); f != 0.5 {
		t.Errorf("factor after first event: %g", f)
	}
	if f := in.Factor(0, 1, 300); f != 0.25 {
		t.Errorf("latest degrade should win: %g", f)
	}
	if f := in.Factor(2, 3, 300); f != 1 {
		t.Errorf("unrelated link degraded: %g", f)
	}
}

// TestVerdictDeterminism pins the core reproducibility property: the
// verdict stream is a pure function of (seed, link, ordinal), so two
// injectors built from the same plan agree draw-for-draw regardless of
// query order.
func TestVerdictDeterminism(t *testing.T) {
	plan := &Plan{Seed: 42, BER: 1e-4}
	a, b := NewInjector(plan), NewInjector(plan)
	// Query b in reverse order to prove order-independence.
	const n = 4096
	got := make([]Verdict, n)
	for i := n - 1; i >= 0; i-- {
		got[i] = b.Verdict(1, 2, uint64(i), 272)
	}
	for i := 0; i < n; i++ {
		if v := a.Verdict(1, 2, uint64(i), 272); v != got[i] {
			t.Fatalf("ordinal %d: %v vs %v", i, v, got[i])
		}
	}
}

// TestVerdictFrequency checks the draw frequency tracks the analytic
// per-crossing probability 1-(1-BER)^bits within loose bounds, and that
// different links are decorrelated.
func TestVerdictFrequency(t *testing.T) {
	const (
		ber   = 1e-4
		bytes = 272
		n     = 20000
	)
	in := NewInjector(&Plan{Seed: 9, BER: ber})
	p := 1 - math.Pow(1-ber, 8*bytes) // ~0.196
	hits := 0
	for i := 0; i < n; i++ {
		if in.Verdict(0, 1, uint64(i), bytes) != VerdictOK {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-p) > 0.02 {
		t.Errorf("hit frequency %.4f, analytic %.4f", freq, p)
	}
	// A different link must not replay the same hit pattern.
	same := 0
	for i := 0; i < n; i++ {
		if in.Verdict(0, 1, uint64(i), bytes) == in.Verdict(2, 3, uint64(i), bytes) {
			same++
		}
	}
	if same == n {
		t.Error("two links produced identical verdict streams")
	}
}

func TestVerdictSplitsCorruptAndDrop(t *testing.T) {
	in := NewInjector(&Plan{Seed: 5, BER: 0.01})
	var corrupt, drop int
	for i := 0; i < 10000; i++ {
		switch in.Verdict(0, 1, uint64(i), 272) {
		case VerdictCorrupt:
			corrupt++
		case VerdictDrop:
			drop++
		}
	}
	if corrupt == 0 || drop == 0 {
		t.Fatalf("hit crossings should split between corrupt (%d) and drop (%d)", corrupt, drop)
	}
}

func TestPlanString(t *testing.T) {
	p, err := ParsePlan("ber=1e-9,down=0-1@1us", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.String(); s != "ber=1e-09,down=0-1@1000ns" {
		t.Errorf("String() = %q", s)
	}
	var nilPlan *Plan
	if nilPlan.String() != "none" {
		t.Errorf("nil plan String() = %q", nilPlan.String())
	}
}

// TestInjectorConcurrentQueries probes the one fault structure every
// group network of a system shares: goroutines query (and ForceDown)
// concurrently, and because draws are counter-based the answers must be
// exactly the single-threaded ones regardless of interleaving. Run under -race this checks the injector's
// internal locking; the value assertions check that locking changed no
// simulated outcome.
func TestInjectorConcurrentQueries(t *testing.T) {
	plan := &Plan{Seed: 99, BER: 1e-4, Events: []Event{
		{Kind: KindDown, A: 0, B: 1, At: 10 * sim.Microsecond},
		{Kind: KindStall, A: 2, B: 3, At: 5 * sim.Microsecond, Dur: 20 * sim.Microsecond},
		{Kind: KindDegrade, A: 1, B: 2, At: 0, Factor: 0.5},
	}}

	// Single-threaded reference answers.
	ref := NewInjector(plan)
	const ordinals = 512
	wantVerdict := make([]Verdict, ordinals)
	for i := range wantVerdict {
		wantVerdict[i] = ref.Verdict(2, 3, uint64(i), 32)
	}
	wantClear := ref.StallClear(2, 3, 6*sim.Microsecond)
	wantFactor := ref.Factor(1, 2, sim.Microsecond)

	in := NewInjector(plan)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ordinals; i++ {
				if got := in.Verdict(2, 3, uint64(i), 32); got != wantVerdict[i] {
					t.Errorf("worker %d: Verdict(%d) = %v, want %v", w, i, got, wantVerdict[i])
					return
				}
				at := sim.Time(i) * 100 * sim.Nanosecond
				in.Down(0, 1, at)
				in.AnyDown(at)
				in.EpochAt(at)
				if got := in.StallClear(2, 3, 6*sim.Microsecond); got != wantClear {
					t.Errorf("worker %d: StallClear = %d, want %d", w, got, wantClear)
					return
				}
				if got := in.Factor(1, 2, sim.Microsecond); got != wantFactor {
					t.Errorf("worker %d: Factor = %v, want %v", w, got, wantFactor)
					return
				}
				if i%64 == 0 {
					// ForceDown on a worker-specific link: mutates the link
					// map and epoch list while other workers query them.
					in.ForceDown(10+w, 11+w, at)
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles: the planned down event and all four forced
	// links are dead, and epochs advanced monotonically.
	if !in.Down(0, 1, 20*sim.Microsecond) {
		t.Fatal("planned down link not dead")
	}
	for w := 0; w < 4; w++ {
		if !in.Down(10+w, 11+w, sim.Second) {
			t.Fatalf("forced link %d-%d not dead", 10+w, 11+w)
		}
	}
	if in.EpochAt(0) > in.EpochAt(sim.Second) {
		t.Fatal("epoch decreased with time")
	}
}

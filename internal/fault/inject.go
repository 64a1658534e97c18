package fault

import (
	"math"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Verdict is the fate of one packet crossing one link.
type Verdict int

const (
	// VerdictOK delivers the packet intact.
	VerdictOK Verdict = iota
	// VerdictCorrupt delivers flits that fail the CRC check at the
	// receiver: the receiver NAKs and the sender replays from its
	// replay buffer.
	VerdictCorrupt
	// VerdictDrop loses the flits entirely: no NAK ever arrives and
	// the sender's retransmission timer must fire.
	VerdictDrop
)

func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictCorrupt:
		return "corrupt"
	case VerdictDrop:
		return "drop"
	}
	return "?"
}

// linkState is the mutable fault state of one bidirectional link.
type linkState struct {
	down     bool
	downAt   sim.Time
	stalls   []Event // KindStall, in plan order
	degrades []Event // KindDegrade, in plan order
}

// Injector answers per-crossing fault queries for one simulated system;
// each system builds its own (the shared Plan stays read-only). A nil
// *Injector means a perfect physical layer and is valid to query.
//
// The injector is shared by every DL group network of its system. A mutex
// guards the lazily mutated state (the flit-probability cache, and the
// link map / epoch list that ForceDown rewrites), so it is safe to query
// from any goroutine. Draws are counter-based (Verdict hashes the packet ordinal),
// so the results are independent of query order — locking changes no
// simulated outcome, and fault-free runs never construct an injector at
// all.
type Injector struct {
	mu    sync.Mutex
	seed  uint64
	ber   float64
	links map[[2]int]*linkState
	downs int // links with a scheduled or forced down event

	// transitions holds every time a link's down state has (or will)
	// become effective, sorted ascending. Between two consecutive entries
	// the set of dead links is constant, which is what lets the network
	// cache routes per epoch. A ForceDown that moves a link's death time
	// earlier leaves its old entry behind — stale entries only split an
	// epoch in two (a harmless extra cache flush), never merge distinct
	// link states into one epoch. forcedVer additionally bumps on every
	// ForceDown state change so cache entries filled before the call are
	// invalidated even for query times preceding the new boundary.
	transitions []sim.Time
	forcedVer   uint64

	// flitProb caches 1-(1-BER)^bits per wire size: the probability
	// that at least one bit of the crossing is hit.
	flitProb map[int]float64
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// NewInjector builds the mutable per-run state for a plan. Returns nil
// for an inactive plan, which callers treat as "fault layer off".
func NewInjector(p *Plan) *Injector {
	if !p.Active() {
		return nil
	}
	in := &Injector{
		seed:     uint64(p.Seed),
		ber:      p.BER,
		links:    make(map[[2]int]*linkState),
		flitProb: make(map[int]float64),
	}
	for _, e := range p.Events {
		s := in.state(e.A, e.B)
		switch e.Kind {
		case KindDown:
			if !s.down || e.At < s.downAt {
				if !s.down {
					in.downs++
				}
				s.down, s.downAt = true, e.At
			}
		case KindStall:
			s.stalls = append(s.stalls, e)
		case KindDegrade:
			s.degrades = append(s.degrades, e)
		}
	}
	// Record each link's effective death time as an epoch boundary (the
	// event loop above already collapsed multiple down events per link to
	// the earliest one).
	for _, s := range in.links {
		if s.down {
			in.transitions = append(in.transitions, s.downAt)
		}
	}
	sort.Slice(in.transitions, func(i, j int) bool { return in.transitions[i] < in.transitions[j] })
	return in
}

func (in *Injector) state(a, b int) *linkState {
	k := linkKey(a, b)
	s := in.links[k]
	if s == nil {
		s = &linkState{}
		in.links[k] = s
	}
	return s
}

// Down reports whether the link a-b is permanently dead at time at.
func (in *Injector) Down(a, b int, at sim.Time) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	s := in.links[linkKey(a, b)]
	down := s != nil && s.down && at >= s.downAt
	in.mu.Unlock()
	return down
}

// AnyDown reports whether any link is dead at time at — the router's
// fast-path check before considering a reroute. O(1): death times only
// ever move earlier, so the first epoch boundary is the earliest death.
func (in *Injector) AnyDown(at sim.Time) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	any := in.downs > 0 && at >= in.transitions[0]
	in.mu.Unlock()
	return any
}

// EpochAt returns the link-state epoch containing time at: a value that
// changes whenever the set of dead links differs between two times (or a
// ForceDown rewrites history between two calls), and is stable while it
// does not. The network keys its route caches on it. A nil injector is
// permanently in epoch 0.
func (in *Injector) EpochAt(at sim.Time) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.transitions) == 0 {
		return 0
	}
	i := sort.Search(len(in.transitions), func(i int) bool { return in.transitions[i] > at })
	return in.forcedVer + uint64(i)
}

// ForceDown marks a link permanently dead from time at onward — the
// DLL calls this when a link exhausts its retry budget, so the router
// stops trying it. Idempotent; an earlier death time wins.
func (in *Injector) ForceDown(a, b int, at sim.Time) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.state(a, b)
	switch {
	case !s.down:
		s.down, s.downAt = true, at
		in.downs++
	case at < s.downAt:
		s.downAt = at
	default:
		return // already dead at or before at: no state change
	}
	// New epoch boundary: insert the death time into the sorted list and
	// bump forcedVer so cache entries filled before this call die too.
	in.forcedVer++
	i := sort.Search(len(in.transitions), func(i int) bool { return in.transitions[i] >= at })
	if i == len(in.transitions) || in.transitions[i] != at {
		in.transitions = append(in.transitions, 0)
		copy(in.transitions[i+1:], in.transitions[i:])
		in.transitions[i] = at
	}
}

// StallClear returns the earliest time >= at when the link is not
// inside a stall window.
func (in *Injector) StallClear(a, b int, at sim.Time) sim.Time {
	if in == nil {
		return at
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.links[linkKey(a, b)]
	if s == nil || len(s.stalls) == 0 {
		return at
	}
	// Windows may overlap; iterate until no window contains at.
	for moved := true; moved; {
		moved = false
		for _, e := range s.stalls {
			if at >= e.At && at < e.At+e.Dur {
				at = e.At + e.Dur
				moved = true
			}
		}
	}
	return at
}

// Factor returns the bandwidth fraction the link runs at, time at: the
// most recent degrade event in effect, else 1.
func (in *Injector) Factor(a, b int, at sim.Time) float64 {
	if in == nil {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.links[linkKey(a, b)]
	if s == nil {
		return 1
	}
	f := 1.0
	var latest sim.Time
	for _, e := range s.degrades {
		if at >= e.At && e.At >= latest {
			latest, f = e.At, e.Factor
		}
	}
	return f
}

// Verdict draws the deterministic fate of the ordinal-th packet sent
// across link a-b (direction-sensitive ordinals are fine: the draw just
// has to be stable run-to-run). wireBytes is the packet's wire size;
// the per-crossing error probability is 1-(1-BER)^(8*wireBytes).
func (in *Injector) Verdict(a, b int, ordinal uint64, wireBytes int) Verdict {
	if in == nil || in.ber <= 0 {
		return VerdictOK
	}
	in.mu.Lock()
	p, ok := in.flitProb[wireBytes]
	if !ok {
		p = 1 - math.Pow(1-in.ber, float64(8*wireBytes))
		in.flitProb[wireBytes] = p
	}
	in.mu.Unlock()
	u := float64(in.mix(a, b, ordinal, 0)>>11) / (1 << 53)
	if u >= p {
		return VerdictOK
	}
	// A hit crossing is either CRC-detectably corrupted (NAK path) or
	// lost outright (timeout path), split evenly by a second draw.
	if in.mix(a, b, ordinal, 1)&1 == 0 {
		return VerdictCorrupt
	}
	return VerdictDrop
}

// mix is a splitmix64-style hash of (seed, link, ordinal, stream) —
// the same counter-based derivation scheme internal/exp uses for job
// seeds, so fault draws are independent of execution order.
func (in *Injector) mix(a, b int, ordinal, stream uint64) uint64 {
	z := in.seed +
		0x9e3779b97f4a7c15*(ordinal+1) +
		0xbf58476d1ce4e5b9*uint64(a+1) +
		0x94d049bb133111eb*uint64(b+1) +
		stream<<48
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

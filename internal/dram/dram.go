// Package dram provides the DDR4 DRAM timing model used for every DIMM in
// the simulated system (the Ramulator substitute, see DESIGN.md).
//
// Each DIMM carries one Module: a set of ranks, each with independent banks
// and an independent data bus. The centralized buffer chip of an NMP DIMM
// can drive its ranks in parallel (the paper: "the NMP cores can access
// local ranks in parallel. Thus, the aggregated memory bandwidth is
// proportional to the total number of ranks"), which is why the bus is
// modeled per rank rather than per channel. The host memory-channel bus is
// a separate, narrower resource owned by the host model.
//
// The model is open-page with first-come bank-parallel scheduling: requests
// reserve their bank and bus in arrival order, banks operate concurrently,
// and row-buffer locality in the address stream yields row hits exactly as
// it would under FR-FCFS for the in-order per-thread streams the cores
// produce.
package dram

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The DDR4-3200 timings, in picoseconds (Micron LR-DIMM datasheets,
// rounded to the nearest 10 ps). One 64-byte line is an 8-beat burst at
// 0.3125 ns/beat = 2.5 ns, giving a 25.6 GB/s data bus.
const (
	tRCD  sim.Time = 13750   // activate to read/write
	tRP   sim.Time = 13750   // precharge
	tCL   sim.Time = 13750   // CAS latency
	tRAS  sim.Time = 32000   // activate to precharge (minimum row open time)
	tWR   sim.Time = 15000   // write recovery
	tRRD  sim.Time = 4900    // activate to activate, different banks, same rank
	tFAW  sim.Time = 21000   // four-activate window per rank
	tRFC  sim.Time = 350000  // refresh cycle time
	tREFI sim.Time = 7800000 // refresh interval
	tBL   sim.Time = 2500    // burst duration of one line transfer on the data bus

	// busBytesPerSec is the per-rank data-bus bandwidth (for transfers
	// longer than one line the bus, not the burst timing, is the limit).
	busBytesPerSec = 25.6e9
)

// Stats counts DRAM activity for performance and energy reporting.
type Stats struct {
	Reads       uint64
	Writes      uint64
	RowHits     uint64
	RowMisses   uint64 // row conflict: close + activate
	RowEmpty    uint64 // bank closed: activate only
	Activations uint64
	ReadBytes   uint64
	WriteBytes  uint64
}

type bank struct {
	openRow  int64 // -1 = closed
	openedAt sim.Time
	// casReadyAt is the earliest next column command: the last CAS + tBL
	// after a read (so the next read burst starts where this one ended) and
	// the burst end + tWR after a write. After a line of a row, it is later
	// than the request's refresh-adjusted start, so a row run times the
	// row's remaining hits from it alone.
	casReadyAt sim.Time
	preReadyAt sim.Time // earliest precharge (read/write to precharge)
}

type rank struct {
	banks    []bank
	bus      sim.BusyLine
	acts     [4]sim.Time // ring of recent activate times for tFAW
	actIdx   int
	actCount int
	lastAct  sim.Time
}

// Module is the DRAM of one DIMM.
type Module struct {
	DIMM  int
	geo   mem.Geometry
	ranks []*rank
	Stats Stats

	// closedPage selects the closed-page (auto-precharge) row policy: every
	// column access closes its row, trading row-hit reuse for a shorter
	// worst-case conflict path. The evaluation uses the open-page default;
	// the abl-page ablation quantifies the difference.
	closedPage bool
}

// New builds the DRAM module of the given DIMM under the open-page row
// policy, or the closed-page one if closedPage is set.
func New(geo mem.Geometry, closedPage bool, dimm int) *Module {
	m := &Module{DIMM: dimm, geo: geo, closedPage: closedPage, ranks: make([]*rank, mem.RanksPerDIMM)}
	for r := range m.ranks {
		rk := &rank{banks: make([]bank, mem.BanksPerRank)}
		for b := range rk.banks {
			rk.banks[b].openRow = -1
		}
		m.ranks[r] = rk
	}
	return m
}

// refreshAdjust pushes t past any refresh window it falls into. Refresh
// occupies [k*tREFI, k*tREFI + tRFC) for every k >= 1.
func (m *Module) refreshAdjust(t sim.Time) sim.Time {
	k := t / tREFI
	if k == 0 {
		return t
	}
	start := k * tREFI
	if t < start+tRFC {
		return start + tRFC
	}
	return t
}

// activateAt returns the earliest time >= t that an activate may issue on
// the rank, honoring tRRD and tFAW, and records the activate.
func (rk *rank) activateAt(t sim.Time) sim.Time {
	if rk.actCount > 0 && rk.lastAct+tRRD > t {
		t = rk.lastAct + tRRD
	}
	// tFAW: at most 4 activates per rolling window. The ring holds the last
	// 4 activate times; the new one must be >= oldest + tFAW.
	if rk.actCount >= 4 {
		if oldest := rk.acts[rk.actIdx]; oldest+tFAW > t {
			t = oldest + tFAW
		}
	}
	rk.acts[rk.actIdx] = t
	rk.actIdx = (rk.actIdx + 1) % 4
	rk.actCount++
	rk.lastAct = t
	return t
}

// Access performs a read or write of size bytes at addr, starting no
// earlier than `at`. It returns the time the last data beat completes on
// the rank data bus. Requests larger than one line are split into
// line-sized column accesses that pipeline on the bank and serialize on the
// data bus. addr must belong to this module's DIMM.
//
// Under the open-page policy a multi-line request is timed one row run at a
// time: the first line of each row goes through the bank state machine, and
// the rest of that row are row hits that rowRun books in one step. It books
// exactly what timing each of those lines through the state machine would:
// every line of one request sees the same refresh-adjusted `at`, each row
// hit's CAS is ready no earlier than that, and nothing else reserves the
// rank bus inside one Access.
// The closed-page policy and single-line requests take only the per-line path.
func (m *Module) Access(at sim.Time, addr uint64, size uint32, write bool) sim.Time {
	if size == 0 {
		size = 1
	}
	first := m.geo.LineAddr(addr)
	last := m.geo.LineAddr(addr + uint64(size) - 1)
	var done sim.Time
	if first == last {
		done, _, _ = m.accessLine(at, first, write)
	} else {
		done = m.accessLines(at, first, last, write)
	}
	if write {
		m.Stats.Writes++
		m.Stats.WriteBytes += uint64(size)
	} else {
		m.Stats.Reads++
		m.Stats.ReadBytes += uint64(size)
	}
	return done
}

// accessLines times the lines first..last of one request, one row run at a
// time under the open-page policy, and returns when the last burst ends.
func (m *Module) accessLines(at sim.Time, first, last uint64, write bool) sim.Time {
	done := at
	for a := first; ; a += mem.LineBytes {
		end, rk, bk := m.accessLine(at, a, write)
		if !m.closedPage {
			if runLast := min(last, (a|(mem.RowBytes-1))&^(mem.LineBytes-1)); runLast > a {
				end = m.rowRun(rk, bk, (runLast-a)/mem.LineBytes, write)
				a = runLast
			}
		}
		if end > done {
			done = end
		}
		if a == last {
			return done
		}
	}
}

// rowRun times k more lines of the row bk has open, right after the line
// accessLine just timed there, and returns when the last burst ends. Each
// line is a row hit whose CAS waits only for bk.casReadyAt. Read bursts
// follow back to back, so one reservation books the span k per-line
// reservations would coalesce into. Write bursts are spaced by tWR, so each
// keeps its own reservation.
func (m *Module) rowRun(rk *rank, bk *bank, k uint64, write bool) sim.Time {
	m.Stats.RowHits += k
	if !write {
		_, end := rk.bus.Reserve(bk.casReadyAt+tCL, k*tBL)
		bk.casReadyAt = end - tCL
		bk.preReadyAt = end
		return end
	}
	var end sim.Time
	for ; k > 0; k-- {
		_, end = rk.bus.Reserve(bk.casReadyAt+tCL, tBL)
		bk.casReadyAt = end + tWR
	}
	bk.preReadyAt = bk.casReadyAt
	return end
}

// accessLine times one line through the bank state machine and returns when
// its burst ends, with the rank and bank it decoded to.
func (m *Module) accessLine(at sim.Time, lineAddr uint64, write bool) (sim.Time, *rank, *bank) {
	loc := m.geo.Decode(lineAddr)
	if loc.DIMM != m.DIMM {
		panic(fmt.Sprintf("dram: address %#x (DIMM %d) routed to DIMM %d", lineAddr, loc.DIMM, m.DIMM))
	}
	rk := m.ranks[loc.Rank]
	bk := &rk.banks[loc.Bank]
	t := m.refreshAdjust(at)

	row := int64(loc.Row)
	if bk.openRow == row {
		m.Stats.RowHits++
	} else {
		if bk.openRow == -1 {
			m.Stats.RowEmpty++
			// The bank must be ready (e.g. a closed-page auto-precharge may
			// still be completing) before the activate can issue.
			if bk.casReadyAt > t {
				t = bk.casReadyAt
			}
		} else {
			m.Stats.RowMisses++
			// Precharge respects tRAS from activation and any in-flight
			// column traffic on the bank.
			pre := t
			if bk.preReadyAt > pre {
				pre = bk.preReadyAt
			}
			if ras := bk.openedAt + tRAS; ras > pre {
				pre = ras
			}
			t = pre + tRP
		}
		actAt := rk.activateAt(t)
		m.Stats.Activations++
		bk.openedAt = actAt
		bk.casReadyAt = actAt + tRCD
		bk.openRow = row
	}

	// Column access: consecutive CAS commands to an open row pipeline every
	// tCCD (~= the burst time), so a streaming sweep is bus-limited. The
	// data burst occupies the rank bus tCL after the CAS issues.
	casIssue := t
	if bk.casReadyAt > casIssue {
		casIssue = bk.casReadyAt
	}
	start, end := rk.bus.Reserve(casIssue+tCL, tBL)
	casIssue = start - tCL // bus backpressure delays the CAS itself
	if write {
		bk.casReadyAt = end + tWR
		bk.preReadyAt = end + tWR
	} else {
		bk.casReadyAt = casIssue + tBL
		bk.preReadyAt = end
	}
	if m.closedPage {
		// Auto-precharge: the row closes behind the burst; the next access
		// to this bank pays a fresh activate (but never a conflict).
		bk.openRow = -1
		bk.casReadyAt = bk.preReadyAt + tRP
	}
	return end, rk, bk
}

// PeakBytesPerSec returns the aggregate peak bandwidth of the module
// (ranks x per-rank bus bandwidth).
func (m *Module) PeakBytesPerSec() float64 {
	return float64(len(m.ranks)) * busBytesPerSec
}

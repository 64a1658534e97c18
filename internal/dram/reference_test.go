package dram

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// refAccess is Access as it was before row runs: every line of the request
// goes through refAccessLine, the bank state machine, on its own.
func (m *Module) refAccess(at sim.Time, addr uint64, size uint32, write bool) sim.Time {
	if size == 0 {
		size = 1
	}
	line := mem.LineBytes
	first := m.geo.LineAddr(addr)
	last := m.geo.LineAddr(addr + uint64(size) - 1)
	done := at
	for a := first; ; a += line {
		end := m.refAccessLine(at, a, write)
		if end > done {
			done = end
		}
		if a == last {
			break
		}
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

// refAccessLine is the per-line bank state machine the row-run path must
// reproduce.
func (m *Module) refAccessLine(at sim.Time, lineAddr uint64, write bool) sim.Time {
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
			if bk.casReadyAt > t {
				t = bk.casReadyAt
			}
		} else {
			m.Stats.RowMisses++
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

	casIssue := t
	if bk.casReadyAt > casIssue {
		casIssue = bk.casReadyAt
	}
	start, end := rk.bus.Reserve(casIssue+tCL, tBL)
	casIssue = start - tCL
	if write {
		bk.casReadyAt = end + tWR
		bk.preReadyAt = end + tWR
	} else {
		bk.casReadyAt = casIssue + tBL
		bk.preReadyAt = end
	}
	if m.closedPage {
		bk.openRow = -1
		bk.casReadyAt = bk.preReadyAt + tRP
	}
	return end
}

// diffOp is one request of a differential run.
type diffOp struct {
	at    sim.Time
	addr  uint64
	size  uint32
	write bool
}

// diffRows is how many rows of DIMM 0 the drawn requests start in: two rows
// per bank of testGeo, so runs hit, conflict and cross row boundaries.
const diffRows = 64

// drawOp maps raw draws to a request: a size of 1 B to 16 KiB at any byte
// offset of the first diffRows rows, and a start that mostly advances the
// clock but often lands just before, inside or just after the next refresh
// window, or steps back a little.
func drawOp(clock *sim.Time, sizeRaw, offRaw, atRaw uint32, mode uint8, write bool) diffOp {
	op := diffOp{
		size:  1 + sizeRaw%16384,
		addr:  uint64(offRaw) % (diffRows * mem.RowBytes),
		write: write,
	}
	switch mode % 4 {
	case 0, 1: // advance by up to 2 us
		*clock += sim.Time(atRaw % 2_000_000)
	case 2: // around the next refresh window [k*tREFI, k*tREFI + tRFC)
		k := *clock/tREFI + 1
		*clock = k*tREFI - 100_000 + sim.Time(atRaw%uint32(tRFC+200_000))
	case 3: // out of order by up to 500 ns
		if back := sim.Time(atRaw % 500_000); back < *clock {
			op.at = *clock - back
			return op
		}
	}
	op.at = *clock
	return op
}

// checkMatchesPerLine runs ops through Access and through refAccess on two
// fresh modules and fails at the first difference in return value, Stats or
// rank state. Every few requests it also compares each rank bus's
// utilization at a non-decreasing probe time.
func checkMatchesPerLine(t *testing.T, closed bool, ops []diffOp) {
	t.Helper()
	fast, ref := New(testGeo(), closed, 0), New(testGeo(), closed, 0)
	var probe sim.Time
	for i, op := range ops {
		got := fast.Access(op.at, op.addr, op.size, op.write)
		want := ref.refAccess(op.at, op.addr, op.size, op.write)
		if got != want || fast.Stats != ref.Stats {
			t.Fatalf("op %d %+v (closed page %v): Access = %d, %+v; per-line = %d, %+v",
				i, op, closed, got, fast.Stats, want, ref.Stats)
		}
		if !reflect.DeepEqual(fast.ranks, ref.ranks) {
			t.Fatalf("op %d %+v (closed page %v): rank state differs from per-line", i, op, closed)
		}
		if i%7 == 6 || i == len(ops)-1 {
			probe = max(probe, op.at)
			for r := range fast.ranks {
				if u, w := fast.ranks[r].bus.Utilization(probe), ref.ranks[r].bus.Utilization(probe); u != w {
					t.Fatalf("op %d: rank %d bus utilization at %d = %v, per-line %v", i, r, probe, u, w)
				}
			}
		}
	}
}

// TestAccessMatchesPerLine drives random mixed read/write sequences under
// both page policies and checks that row runs time exactly what the
// per-line loop does.
func TestAccessMatchesPerLine(t *testing.T) {
	for _, closed := range []bool{false, true} {
		t.Run(fmt.Sprintf("closed=%v", closed), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var clock sim.Time
				ops := make([]diffOp, 300)
				for i := range ops {
					ops[i] = drawOp(&clock, rng.Uint32(), rng.Uint32(), rng.Uint32(), uint8(rng.Intn(4)), rng.Intn(2) == 0)
				}
				checkMatchesPerLine(t, closed, ops)
			}
		})
	}
}

// FuzzAccessMatchesPerLine is TestAccessMatchesPerLine over a fuzzed
// request stream: byte 0 picks the page policy, then each 14-byte record
// is one request (size, offset, start, start mode and direction).
func FuzzAccessMatchesPerLine(f *testing.F) {
	f.Add([]byte{0, 0xff, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0xff, 0x3f, 0, 0, 0xc0, 0x1f, 0, 0, 0, 0, 0, 0, 2, 1})
	f.Add([]byte{0,
		0x00, 0x10, 0, 0, 0x10, 0x00, 0, 0, 0x10, 0x27, 0, 0, 0, 1,
		0xff, 0x3f, 0, 0, 0x30, 0x1f, 0, 0, 0xa0, 0x86, 0x01, 0, 2, 0,
		0x40, 0x00, 0, 0, 0xc8, 0x1f, 0, 0, 0x20, 0x4e, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		closed := data[0]&1 == 1
		var clock sim.Time
		var ops []diffOp
		for rec := data[1:]; len(rec) >= 14 && len(ops) < 256; rec = rec[14:] {
			u := binary.LittleEndian.Uint32
			ops = append(ops, drawOp(&clock, u(rec[0:]), u(rec[4:]), u(rec[8:]), rec[12], rec[13]&1 == 1))
		}
		checkMatchesPerLine(t, closed, ops)
	})
}

package dram

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDRAMBankFSM measures the bank state machine on a row-hit-heavy
// sequential stream interleaved with bank-conflicting strides: activate /
// CAS / precharge decisions, bus reservation and refresh adjustment.
func BenchmarkDRAMBankFSM(b *testing.B) {
	m := New(testGeo(), false, 0)
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Three sequential lines (row hits), then a far stride that lands
		// in another row of the same bank (row miss -> precharge cycle).
		addr := uint64(i%3)*64 + uint64(i/3)%64*1<<20
		done := m.Access(t, addr, 64, i%4 == 0)
		if done > t {
			t = done
		}
	}
}

// BenchmarkDRAMRowRun measures one 4 KiB request, 64 lines in one row, the
// size of every access of the train workload. Successive requests sweep
// consecutive rows, so each opens a fresh bank and then streams row hits.
func BenchmarkDRAMRowRun(b *testing.B) {
	for _, bc := range []struct {
		name  string
		write bool
	}{{"read", false}, {"write", true}} {
		b.Run(bc.name, func(b *testing.B) {
			g := testGeo()
			m := New(g, false, 0)
			var t sim.Time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i) * 4096 % g.DIMMCapBytes
				if done := m.Access(t, addr, 4096, bc.write); done > t {
					t = done
				}
			}
		})
	}
}

package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func testGeo() Geometry {
	return Geometry{
		NumDIMMs:     4,
		NumChannels:  2,
		DIMMCapBytes: 1 << 26, // 64 MiB per DIMM keeps tests small
		RanksPerDIMM: 2,
		BanksPerRank: 16,
		RowBytes:     8192,
		LineBytes:    64,
	}
}

func TestGeometryValidate(t *testing.T) {
	g := testGeo()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := g
	bad.DIMMCapBytes = 3 << 20
	if bad.Validate() == nil {
		t.Error("non-power-of-two capacity accepted")
	}
	bad = g
	bad.NumChannels = 3
	if bad.Validate() == nil {
		t.Error("channels not dividing DIMMs accepted")
	}
	bad = g
	bad.LineBytes = 16384
	if bad.Validate() == nil {
		t.Error("line > row accepted")
	}
	// Decode is shifts and masks, so ranks and banks must be powers of
	// two; the error names the offending field.
	for _, tc := range []struct {
		field string
		set   func(*Geometry)
	}{
		{"RanksPerDIMM", func(g *Geometry) { g.RanksPerDIMM = 3 }},
		{"RanksPerDIMM", func(g *Geometry) { g.RanksPerDIMM = 0 }},
		{"BanksPerRank", func(g *Geometry) { g.BanksPerRank = 12 }},
		{"BanksPerRank", func(g *Geometry) { g.BanksPerRank = -16 }},
	} {
		bad := g
		tc.set(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", bad, err, tc.field)
		}
	}
}

func TestDIMMAndChannelMapping(t *testing.T) {
	g := testGeo()
	for d := 0; d < g.NumDIMMs; d++ {
		base := g.DIMMBase(d)
		if got := g.DIMMOf(base); got != d {
			t.Errorf("DIMMOf(base of %d) = %d", d, got)
		}
		if got := g.DIMMOf(base + g.DIMMCapBytes - 1); got != d {
			t.Errorf("DIMMOf(last byte of %d) = %d", d, got)
		}
	}
	// 4 DIMMs, 2 channels -> DIMMs 0,1 on channel 0; 2,3 on channel 1.
	wantCh := []int{0, 0, 1, 1}
	for d, want := range wantCh {
		if got := g.ChannelOfDIMM(d); got != want {
			t.Errorf("ChannelOfDIMM(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestDecodeRoundTripProperties(t *testing.T) {
	g := testGeo()
	f := func(raw uint64) bool {
		addr := raw % g.TotalBytes()
		loc := g.Decode(addr)
		if loc.DIMM != g.DIMMOf(addr) {
			return false
		}
		if loc.Rank < 0 || loc.Rank >= g.RanksPerDIMM {
			return false
		}
		if loc.Bank < 0 || loc.Bank >= g.BanksPerRank {
			return false
		}
		if loc.Col >= g.RowBytes || loc.Col%g.LineBytes != 0 {
			return false
		}
		// Reconstruct the address from the coordinate.
		rowIdx := (loc.Row*uint64(g.RanksPerDIMM)+uint64(loc.Rank))*uint64(g.BanksPerRank) + uint64(loc.Bank)
		rebuilt := g.DIMMBase(loc.DIMM) + rowIdx*g.RowBytes + loc.Col
		return rebuilt == g.LineAddr(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// decodeByDivision is the reference decoder: the divide-and-modulo form
// of the layout formula documented on Decode, valid for any geometry.
func decodeByDivision(g Geometry, addr uint64) Location {
	dimm := int(addr / g.DIMMCapBytes)
	off := addr % g.DIMMCapBytes
	rowIdx := off / g.RowBytes
	bank := int(rowIdx % uint64(g.BanksPerRank))
	rowIdx /= uint64(g.BanksPerRank)
	rank := int(rowIdx % uint64(g.RanksPerDIMM))
	return Location{
		DIMM: dimm,
		Rank: rank,
		Bank: bank,
		Row:  rowIdx / uint64(g.RanksPerDIMM),
		Col:  off % g.RowBytes / g.LineBytes * g.LineBytes,
	}
}

// FuzzGeometryDecode draws a power-of-two geometry and an address inside
// it, and checks Decode against the division reference and that the
// coordinate rebuilds the line address.
func FuzzGeometryDecode(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(4), uint8(13), uint8(6), uint8(26), uint64(0))
	f.Add(uint8(4), uint8(0), uint8(0), uint8(6), uint8(6), uint8(20), uint64(1<<20+12345))
	f.Add(uint8(16), uint8(2), uint8(5), uint8(11), uint8(3), uint8(34), ^uint64(0))
	f.Add(uint8(3), uint8(1), uint8(4), uint8(13), uint8(6), uint8(30), uint64(0xdeadbeefcafe))
	f.Fuzz(func(t *testing.T, dimms, rankBits, bankBits, rowBits, lineBits, capBits uint8, raw uint64) {
		rowBits = 6 + rowBits%11            // 64 B .. 64 KiB rows
		lineBits = 3 + lineBits%(rowBits-2) // 8 B .. row-size lines
		capBits = rowBits + capBits%(40-rowBits)
		g := Geometry{
			NumDIMMs:     1 + int(dimms%32),
			NumChannels:  1,
			DIMMCapBytes: 1 << capBits,
			RanksPerDIMM: 1 << (rankBits % 4),
			BanksPerRank: 1 << (bankBits % 6),
			RowBytes:     1 << rowBits,
			LineBytes:    1 << lineBits,
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("drawn geometry %+v invalid: %v", g, err)
		}
		addr := raw % g.TotalBytes()
		got, want := g.Decode(addr), decodeByDivision(g, addr)
		if got != want {
			t.Fatalf("%+v: Decode(%#x) = %+v, reference %+v", g, addr, got, want)
		}
		rowIdx := (got.Row*uint64(g.RanksPerDIMM)+uint64(got.Rank))*uint64(g.BanksPerRank) + uint64(got.Bank)
		if rebuilt := g.DIMMBase(got.DIMM) + rowIdx*g.RowBytes + got.Col; rebuilt != g.LineAddr(addr) {
			t.Fatalf("%+v: %+v rebuilds %#x, want line %#x", g, got, rebuilt, g.LineAddr(addr))
		}
	})
}

func TestDecodeSequentialIsRowFriendly(t *testing.T) {
	g := testGeo()
	// A sequential sweep within one row must keep the same (rank,bank,row).
	first := g.Decode(0)
	for off := uint64(0); off < g.RowBytes; off += g.LineBytes {
		loc := g.Decode(off)
		if loc.Rank != first.Rank || loc.Bank != first.Bank || loc.Row != first.Row {
			t.Fatalf("offset %d left the row: %+v vs %+v", off, loc, first)
		}
	}
	// The next row must land in a different bank (bank interleaving).
	next := g.Decode(g.RowBytes)
	if next.Bank == first.Bank && next.Rank == first.Rank {
		t.Fatalf("adjacent rows share a bank: %+v", next)
	}
}

func TestAllocOn(t *testing.T) {
	s := MustNewSpace(testGeo())
	seg, err := s.AllocOn("a", 1000, 2, SharedRO)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 1000; off += 100 {
		if d := s.Geo.DIMMOf(seg.Addr(off)); d != 2 {
			t.Fatalf("offset %d on DIMM %d, want 2", off, d)
		}
	}
	if s.AttrOf(seg.Addr(500)) != SharedRO {
		t.Fatal("attr lookup failed")
	}
	// Allocations are 64-byte aligned and bump the arena, so a second
	// allocation starts right after the first one's aligned end.
	seg2 := s.MustAllocOn("b", 64, 2, Private)
	if seg2.Addr(0) != seg.Addr(0)+1024 {
		t.Fatalf("second segment at %#x, want %#x", seg2.Addr(0), seg.Addr(0)+1024)
	}
}

func TestSegmentOf(t *testing.T) {
	s := MustNewSpace(testGeo())
	a := s.MustAllocOn("a", 128, 0, Private)
	b := s.MustAllocOn("b", 128, 1, SharedRW)
	if got := s.SegmentOf(a.Addr(5)); got != a {
		t.Fatalf("SegmentOf(a) = %v", got)
	}
	if got := s.SegmentOf(b.Addr(127)); got != b {
		t.Fatalf("SegmentOf(b) = %v", got)
	}
	if got := s.SegmentOf(s.Geo.DIMMBase(3) + 12345); got != nil {
		t.Fatalf("SegmentOf(unallocated) = %v", got)
	}
	if s.AttrOf(s.Geo.DIMMBase(3)+12345) != Private {
		t.Fatal("unallocated attr should be Private")
	}
}

func TestAllocExhaustion(t *testing.T) {
	g := testGeo()
	g.DIMMCapBytes = 1 << 12 // 4 KiB
	s := MustNewSpace(g)
	if _, err := s.AllocOn("big", 1<<13, 0, Private); err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
}

func TestAddrOutOfRangePanics(t *testing.T) {
	s := MustNewSpace(testGeo())
	seg := s.MustAllocOn("a", 100, 0, Private)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Addr did not panic")
		}
	}()
	seg.Addr(100)
}

func TestAttrCacheable(t *testing.T) {
	if !Private.Cacheable() || !SharedRO.Cacheable() || SharedRW.Cacheable() {
		t.Fatal("cacheability rules wrong")
	}
	if Private.String() != "private" || SharedRW.String() != "shared-rw" {
		t.Fatal("Attr.String wrong")
	}
}

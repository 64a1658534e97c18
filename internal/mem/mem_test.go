package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func testGeo() Geometry { return Geometry{NumDIMMs: 4, NumChannels: 2} }

func TestGeometryValidate(t *testing.T) {
	g := testGeo()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	for _, tc := range []struct {
		field string
		bad   Geometry
	}{
		{"NumDIMMs", Geometry{NumDIMMs: 0, NumChannels: 1}},
		{"NumDIMMs", Geometry{NumDIMMs: -4, NumChannels: 2}},
		{"NumChannels", Geometry{NumDIMMs: 4, NumChannels: 3}},
		{"NumChannels", Geometry{NumDIMMs: 4, NumChannels: 0}},
		{"NumChannels", Geometry{NumDIMMs: 2, NumChannels: 4}},
	} {
		if err := tc.bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", tc.bad, err, tc.field)
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
		if got := g.DIMMOf(base + DIMMCapBytes - 1); got != d {
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
		if loc.Rank < 0 || loc.Rank >= RanksPerDIMM {
			return false
		}
		if loc.Bank < 0 || loc.Bank >= BanksPerRank {
			return false
		}
		if loc.Col >= RowBytes || loc.Col%LineBytes != 0 {
			return false
		}
		// Reconstruct the address from the coordinate.
		rowIdx := (loc.Row*RanksPerDIMM+uint64(loc.Rank))*BanksPerRank + uint64(loc.Bank)
		rebuilt := g.DIMMBase(loc.DIMM) + rowIdx*RowBytes + loc.Col
		return rebuilt == g.LineAddr(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// decodeByDivision is the reference decoder: the divide-and-modulo form
// of the layout formula documented on Decode.
func decodeByDivision(addr uint64) Location {
	dimm := int(addr / DIMMCapBytes)
	off := addr % DIMMCapBytes
	rowIdx := off / RowBytes
	bank := int(rowIdx % BanksPerRank)
	rowIdx /= BanksPerRank
	rank := int(rowIdx % RanksPerDIMM)
	return Location{
		DIMM: dimm,
		Rank: rank,
		Bank: bank,
		Row:  rowIdx / RanksPerDIMM,
		Col:  off % RowBytes / LineBytes * LineBytes,
	}
}

// FuzzGeometryDecode draws a DIMM count and an address inside the system,
// and checks Decode against the division reference and that the
// coordinate rebuilds the line address.
func FuzzGeometryDecode(f *testing.F) {
	f.Add(uint8(2), uint64(0))
	f.Add(uint8(4), uint64(1<<20+12345))
	f.Add(uint8(16), ^uint64(0))
	f.Add(uint8(3), uint64(0xdeadbeefcafe))
	f.Fuzz(func(t *testing.T, dimms uint8, raw uint64) {
		g := Geometry{NumDIMMs: 1 + int(dimms%64), NumChannels: 1}
		addr := raw % g.TotalBytes()
		got, want := g.Decode(addr), decodeByDivision(addr)
		if got != want {
			t.Fatalf("%+v: Decode(%#x) = %+v, reference %+v", g, addr, got, want)
		}
		rowIdx := (got.Row*RanksPerDIMM+uint64(got.Rank))*BanksPerRank + uint64(got.Bank)
		if rebuilt := g.DIMMBase(got.DIMM) + rowIdx*RowBytes + got.Col; rebuilt != g.LineAddr(addr) {
			t.Fatalf("%+v: %+v rebuilds %#x, want line %#x", g, got, rebuilt, g.LineAddr(addr))
		}
	})
}

func TestDecodeSequentialIsRowFriendly(t *testing.T) {
	g := testGeo()
	// A sequential sweep within one row must keep the same (rank,bank,row).
	first := g.Decode(0)
	for off := uint64(0); off < RowBytes; off += LineBytes {
		loc := g.Decode(off)
		if loc.Rank != first.Rank || loc.Bank != first.Bank || loc.Row != first.Row {
			t.Fatalf("offset %d left the row: %+v vs %+v", off, loc, first)
		}
	}
	// The next row must land in a different bank (bank interleaving).
	next := g.Decode(RowBytes)
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
	s := MustNewSpace(testGeo())
	if _, err := s.AllocOn("big", DIMMCapBytes+1, 0, Private); err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
	// A DIMM filled to the last byte accepts nothing more, and its
	// neighbour is unaffected.
	s.MustAllocOn("fill", DIMMCapBytes, 1, Private)
	if _, err := s.AllocOn("spill", 64, 1, Private); err == nil {
		t.Fatal("allocation past a full DIMM accepted")
	}
	s.MustAllocOn("next", 64, 2, Private)
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

// Package mem models the physical address space of a DIMM-NMP system.
//
// Following the paper (Section III-E), NMP data is managed with simple
// memory segmentation, no paging: workloads allocate named segments and
// compute physical addresses directly from segment bases. Each DIMM owns a
// contiguous power-of-two slice of the physical address space, so the DIMM
// ID is a simple shift of the address — exactly the property the DL packet
// format exploits when it stores only the 37 intra-DIMM address bits in the
// ADDR field.
//
// Every field of the DRAM coordinate is a power of two — DIMM capacity,
// ranks per DIMM, banks per rank, row size and line size — so Decode is
// shifts and masks only, with no divide on the per-access path. DDR4's 16
// banks in 4 bank groups and 1-, 2- or 4-rank DIMMs all fit the rule;
// Validate rejects any other shape.
//
// The package is purely about addresses and attributes; actual data values
// live in the workloads' own Go data structures (functional-first
// simulation, see DESIGN.md §3).
package mem

import (
	"fmt"
	"math/bits"
	"sort"
)

// Attr describes the sharing class of a segment, which drives the
// software-assisted cache coherence of Section III-E: thread-private and
// shared read-only data may be cached by NMP cores; shared read-write data
// is uncacheable.
type Attr int

const (
	// Private data is owned by one thread and freely cacheable.
	Private Attr = iota
	// SharedRO data is read-only during kernel execution and cacheable.
	SharedRO
	// SharedRW data is written by multiple threads and uncacheable.
	SharedRW
)

func (a Attr) String() string {
	switch a {
	case Private:
		return "private"
	case SharedRO:
		return "shared-ro"
	case SharedRW:
		return "shared-rw"
	default:
		return fmt.Sprintf("Attr(%d)", int(a))
	}
}

// Cacheable reports whether data with this attribute may live in NMP caches.
func (a Attr) Cacheable() bool { return a != SharedRW }

// Geometry describes the fixed shape of the memory system.
type Geometry struct {
	NumDIMMs     int    // total DIMMs in the system
	NumChannels  int    // host memory channels
	DIMMCapBytes uint64 // capacity per DIMM; must be a power of two
	RanksPerDIMM int    // must be a power of two
	BanksPerRank int    // must be a power of two
	RowBytes     uint64 // DRAM row (page) size in bytes; power of two
	LineBytes    uint64 // transaction granularity (cache line); power of two
}

// Validate checks internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.NumDIMMs <= 0:
		return fmt.Errorf("mem: NumDIMMs %d <= 0", g.NumDIMMs)
	case g.NumChannels <= 0 || g.NumDIMMs%g.NumChannels != 0:
		return fmt.Errorf("mem: NumChannels %d must divide NumDIMMs %d", g.NumChannels, g.NumDIMMs)
	case g.DIMMCapBytes == 0 || g.DIMMCapBytes&(g.DIMMCapBytes-1) != 0:
		return fmt.Errorf("mem: DIMMCapBytes %d not a power of two", g.DIMMCapBytes)
	case g.RanksPerDIMM <= 0 || g.RanksPerDIMM&(g.RanksPerDIMM-1) != 0:
		return fmt.Errorf("mem: RanksPerDIMM %d not a power of two", g.RanksPerDIMM)
	case g.BanksPerRank <= 0 || g.BanksPerRank&(g.BanksPerRank-1) != 0:
		return fmt.Errorf("mem: BanksPerRank %d not a power of two", g.BanksPerRank)
	case g.RowBytes == 0 || g.RowBytes&(g.RowBytes-1) != 0:
		return fmt.Errorf("mem: RowBytes %d not a power of two", g.RowBytes)
	case g.LineBytes == 0 || g.LineBytes&(g.LineBytes-1) != 0:
		return fmt.Errorf("mem: LineBytes %d not a power of two", g.LineBytes)
	case g.LineBytes > g.RowBytes:
		return fmt.Errorf("mem: line %d larger than row %d", g.LineBytes, g.RowBytes)
	}
	return nil
}

// DIMMsPerChannel returns the DPC count: how many DIMM slots the
// channel-major layout assigns per channel. Ceiling division keeps every
// DIMM inside a valid channel when NumDIMMs is not a multiple of
// NumChannels (floor division mapped trailing DIMMs to out-of-range
// channels); Validate still rejects such geometries for built systems,
// but derived code paths (broadcast channel layout, tooling) must not
// misattribute DIMMs on the lenient ones.
func (g Geometry) DIMMsPerChannel() int {
	return (g.NumDIMMs + g.NumChannels - 1) / g.NumChannels
}

// DIMMOf returns the DIMM owning addr.
func (g Geometry) DIMMOf(addr uint64) int {
	d := int(addr >> uint(bits.TrailingZeros64(g.DIMMCapBytes)))
	if d >= g.NumDIMMs {
		panic(fmt.Sprintf("mem: address %#x beyond DIMM %d capacity", addr, g.NumDIMMs))
	}
	return d
}

// ChannelOfDIMM returns the host memory channel the DIMM sits on. DIMMs are
// laid out channel-major: channel c holds DIMMs [c*DPC, (c+1)*DPC). With a
// non-multiple DIMM count trailing channels may be short or empty, but the
// result is always in [0, NumChannels).
func (g Geometry) ChannelOfDIMM(dimm int) int { return dimm / g.DIMMsPerChannel() }

// DIMMBase returns the first physical address of the given DIMM.
func (g Geometry) DIMMBase(dimm int) uint64 {
	return uint64(dimm) * g.DIMMCapBytes
}

// TotalBytes returns total system capacity.
func (g Geometry) TotalBytes() uint64 { return uint64(g.NumDIMMs) * g.DIMMCapBytes }

// Location is a fully decoded DRAM coordinate.
type Location struct {
	DIMM int
	Rank int
	Bank int
	Row  uint64
	Col  uint64 // byte offset within the row, line-aligned
}

// Decode maps addr to its DRAM coordinate. The intra-DIMM layout is
// row-major with banks interleaved at row granularity below ranks:
//
//	addr(in DIMM) = ((row * ranks + rank) * banks + bank) * rowBytes + col
//
// so that a sequential stream sweeps a full row before switching banks
// (maximizing row-buffer hits), and adjacent rows land in different banks.
// Validate guarantees every factor is a power of two, so each field is a
// shift and a mask of the address.
func (g Geometry) Decode(addr uint64) Location {
	dimm := g.DIMMOf(addr)
	off := addr & (g.DIMMCapBytes - 1)
	rowIdx := off >> uint(bits.TrailingZeros64(g.RowBytes))
	bankBits := uint(bits.TrailingZeros(uint(g.BanksPerRank)))
	rankBits := uint(bits.TrailingZeros(uint(g.RanksPerDIMM)))
	return Location{
		DIMM: dimm,
		Rank: int(rowIdx>>bankBits) & (g.RanksPerDIMM - 1),
		Bank: int(rowIdx) & (g.BanksPerRank - 1),
		Row:  rowIdx >> (bankBits + rankBits),
		Col:  off & (g.RowBytes - 1) &^ (g.LineBytes - 1),
	}
}

// LineAddr returns addr rounded down to its cache line.
func (g Geometry) LineAddr(addr uint64) uint64 { return addr &^ (g.LineBytes - 1) }

// rangeAttr is one allocated address range, used for attribute lookup.
type rangeAttr struct {
	start, end uint64 // [start, end)
	seg        *Segment
}

// Space is the segment allocator over a Geometry. It hands out physical
// address ranges with explicit placement and tracks sharing attributes.
type Space struct {
	Geo    Geometry
	next   []uint64 // per-DIMM bump pointer (offset within the DIMM)
	ranges []rangeAttr
}

// NewSpace creates an empty address space over g.
func NewSpace(g Geometry) (*Space, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Space{Geo: g, next: make([]uint64, g.NumDIMMs)}, nil
}

// MustNewSpace is NewSpace that panics on error, for tests and examples.
func MustNewSpace(g Geometry) *Space {
	s, err := NewSpace(g)
	if err != nil {
		panic(err)
	}
	return s
}

// Segment is a named allocation, contiguous on one DIMM. Addr translates
// a logical offset within the segment into a physical address.
type Segment struct {
	Name string
	Size uint64
	Attr Attr
	base uint64
}

const allocAlign = 64

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func (s *Space) allocRaw(dimm int, size uint64) (uint64, error) {
	size = alignUp(size, allocAlign)
	off := s.next[dimm]
	if off+size > s.Geo.DIMMCapBytes {
		return 0, fmt.Errorf("mem: DIMM %d out of capacity (%d + %d > %d)", dimm, off, size, s.Geo.DIMMCapBytes)
	}
	s.next[dimm] = off + size
	return s.Geo.DIMMBase(dimm) + off, nil
}

// AllocOn allocates size bytes contiguously on a single DIMM.
func (s *Space) AllocOn(name string, size uint64, dimm int, attr Attr) (*Segment, error) {
	if dimm < 0 || dimm >= s.Geo.NumDIMMs {
		return nil, fmt.Errorf("mem: DIMM %d out of range", dimm)
	}
	if size == 0 {
		return nil, fmt.Errorf("mem: zero-size segment %q", name)
	}
	base, err := s.allocRaw(dimm, size)
	if err != nil {
		return nil, err
	}
	seg := &Segment{Name: name, Size: size, Attr: attr, base: base}
	s.register(seg, base, base+alignUp(size, allocAlign))
	return seg, nil
}

// MustAllocOn panics on allocation failure.
func (s *Space) MustAllocOn(name string, size uint64, dimm int, attr Attr) *Segment {
	seg, err := s.AllocOn(name, size, dimm, attr)
	if err != nil {
		panic(err)
	}
	return seg
}

func (s *Space) register(seg *Segment, start, end uint64) {
	s.ranges = append(s.ranges, rangeAttr{start: start, end: end, seg: seg})
	sort.Slice(s.ranges, func(i, j int) bool { return s.ranges[i].start < s.ranges[j].start })
}

// SegmentOf returns the segment containing addr, or nil.
func (s *Space) SegmentOf(addr uint64) *Segment {
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].end > addr })
	if i < len(s.ranges) && s.ranges[i].start <= addr {
		return s.ranges[i].seg
	}
	return nil
}

// AttrOf returns the sharing attribute of addr. Unallocated addresses are
// treated as Private (they are only ever touched by infrastructure code).
func (s *Space) AttrOf(addr uint64) Attr {
	if seg := s.SegmentOf(addr); seg != nil {
		return seg.Attr
	}
	return Private
}

// Addr translates a logical offset within the segment to a physical
// address. Offsets at or beyond the segment size panic.
func (sg *Segment) Addr(off uint64) uint64 {
	if off >= sg.Size {
		panic(fmt.Sprintf("mem: offset %d beyond segment %q size %d", off, sg.Name, sg.Size))
	}
	return sg.base + off
}

package ingest

import (
	"fmt"

	"repro/internal/mem"
)

// Mapping policies. An external trace carries raw physical addresses
// from whatever machine produced it; a mapper translates them into the
// simulated system's address space, deciding which DIMM each access
// lands on — the knob that determines how much of the trace becomes
// inter-DIMM traffic.
const (
	// MapDirect uses trace addresses verbatim; they must already fit the
	// simulated capacity. This is what replaying a simulator-recorded
	// trace wants: the addresses are already placed.
	MapDirect = "direct"
	// MapPage interleaves fixed-size pages round-robin across DIMMs, the
	// classic OS interleaving baseline.
	MapPage = "page"
	// MapFirstTouch assigns each page to the home DIMM of the thread
	// that touches it first (MultiPIM's PageTable policy): an NMP-aware
	// OS would place data near its consumer.
	MapFirstTouch = "first-touch"
)

// Mapper translates one raw trace address into a simulated physical
// address. homeDIMM is the DIMM of the thread issuing the access (used
// by first-touch). Mappers are deterministic: the same access sequence
// maps identically on every run.
type Mapper interface {
	Name() string
	Map(homeDIMM int, addr uint64, size uint32) (uint64, error)
}

// NewMapper builds the named policy over the target geometry. pageBytes
// is the mapping granularity for the page-table policies (ignored by
// direct); it must be a power of two no larger than one DIMM.
func NewMapper(policy string, pageBytes uint64, geo mem.Geometry) (Mapper, error) {
	switch policy {
	case MapDirect:
		return &directMapper{total: geo.TotalBytes()}, nil
	case MapPage, MapFirstTouch:
		if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
			return nil, fmt.Errorf("ingest: page size %d not a power of two", pageBytes)
		}
		if pageBytes > geo.DIMMCapBytes {
			return nil, fmt.Errorf("ingest: page size %d exceeds DIMM capacity %d", pageBytes, geo.DIMMCapBytes)
		}
		p := &pageMapper{geo: geo, pageBytes: pageBytes, frames: geo.DIMMCapBytes / pageBytes}
		if policy == MapPage {
			return p, nil
		}
		return &firstTouchMapper{
			pageMapper: p,
			table:      make(map[uint64]uint64),
			next:       make([]uint64, geo.NumDIMMs),
		}, nil
	default:
		return nil, fmt.Errorf("ingest: unknown mapping policy %q (want direct, page or first-touch)", policy)
	}
}

// directMapper passes addresses through, rejecting any beyond capacity
// (mem.Geometry.DIMMOf panics past the end; replay must never reach it).
type directMapper struct{ total uint64 }

func (m *directMapper) Name() string { return MapDirect }

func (m *directMapper) Map(_ int, addr uint64, size uint32) (uint64, error) {
	if addr+uint64(size) > m.total {
		return 0, fmt.Errorf("addr %#x + size %d beyond system capacity %#x (use -map page for raw traces)", addr, size, m.total)
	}
	return addr, nil
}

// placePage turns a (dimm, frame) pair plus the intra-page offset and
// size into a final address, sliding the offset back when the access
// would spill past the end of the DIMM so every mapped access stays
// within one DIMM (the segmented address space has no cross-DIMM
// ranges; mem.Geometry.DIMMOf(addr) must equal DIMMOf(addr+size-1)).
func (p *pageMapper) placePage(dimm int, frame, intra uint64, size uint32) (uint64, error) {
	if uint64(size) > p.geo.DIMMCapBytes {
		return 0, fmt.Errorf("size %d exceeds DIMM capacity %d", size, p.geo.DIMMCapBytes)
	}
	off := frame*p.pageBytes + intra
	if off+uint64(size) > p.geo.DIMMCapBytes {
		off = p.geo.DIMMCapBytes - uint64(size)
	}
	return p.geo.DIMMBase(dimm) + off, nil
}

// pageMapper interleaves pages round-robin: page i lands on DIMM
// i % N, frame (i / N) % framesPerDIMM (wrapping re-uses frames for
// traces larger than the simulated capacity — the access pattern's
// locality structure is preserved even when its footprint is not).
type pageMapper struct {
	geo       mem.Geometry
	pageBytes uint64
	frames    uint64 // frames per DIMM
}

func (p *pageMapper) Name() string { return MapPage }

func (p *pageMapper) Map(_ int, addr uint64, size uint32) (uint64, error) {
	page := addr / p.pageBytes
	dimm := int(page % uint64(p.geo.NumDIMMs))
	frame := (page / uint64(p.geo.NumDIMMs)) % p.frames
	return p.placePage(dimm, frame, addr%p.pageBytes, size)
}

// firstTouchMapper assigns each raw page to the issuing thread's home
// DIMM on first touch, bump-allocating frames per DIMM (wrapping like
// pageMapper when a DIMM's frames are exhausted).
type firstTouchMapper struct {
	*pageMapper
	table map[uint64]uint64 // raw page -> packed (dimm, frame)
	next  []uint64          // per-DIMM frame bump pointer
}

func (m *firstTouchMapper) Name() string { return MapFirstTouch }

func (m *firstTouchMapper) Map(homeDIMM int, addr uint64, size uint32) (uint64, error) {
	if homeDIMM < 0 || homeDIMM >= m.geo.NumDIMMs {
		return 0, fmt.Errorf("home DIMM %d out of range [0, %d)", homeDIMM, m.geo.NumDIMMs)
	}
	page := addr / m.pageBytes
	packed, ok := m.table[page]
	if !ok {
		frame := m.next[homeDIMM] % m.frames
		m.next[homeDIMM]++
		packed = uint64(homeDIMM)*m.frames + frame
		m.table[page] = packed
	}
	return m.placePage(int(packed/m.frames), packed%m.frames, addr%m.pageBytes, size)
}

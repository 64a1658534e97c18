// Package cache models the set-associative write-back caches of the NMP
// cores (per-core L1, per-DIMM shared L2) and of the host CPU.
//
// Coherence is software-assisted, as in the paper (Section III-E): the
// cores only route cacheable addresses here (thread-private and shared
// read-only data); shared read-write data bypasses the caches entirely, so
// no coherence protocol is modeled. At kernel completion the NMP cores
// flush their caches so the host can observe results; Flush returns the
// dirty lines so the caller can charge the write-back traffic.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Config describes one cache level. Every level uses the system's line,
// mem.LineBytes.
type Config struct {
	SizeBytes  uint64
	Ways       int
	HitLatency sim.Time
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d <= 0", c.Ways)
	}
	lines := c.SizeBytes / mem.LineBytes
	if lines == 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache: size %d / line %d not divisible by %d ways", c.SizeBytes, mem.LineBytes, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a single set-associative write-back, write-allocate cache.
type Cache struct {
	cfg Config
	// ways holds every set's ways, set s at ways[s*Ways:(s+1)*Ways]. It
	// is allocated by the first Access: many caches of a system are never
	// touched (a workload with no cacheable data), and until then they
	// hold nothing.
	ways     []way
	nsets    uint64
	setShift uint // log2(nsets): the tag is the line number above it
	tick     uint64
	Stats    Stats
}

// New builds a cache from cfg; invalid configurations panic (they are
// always construction-time bugs).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / mem.LineBytes / uint64(cfg.Ways)
	return &Cache{cfg: cfg, nsets: nsets, setShift: uint(bits.TrailingZeros64(nsets))}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr / mem.LineBytes
	return line & (c.nsets - 1), line >> c.setShift
}

// set returns the ways of set s; the cache must hold its ways.
func (c *Cache) set(s uint64) []way {
	w := uint64(c.cfg.Ways)
	return c.ways[s*w : (s+1)*w]
}

// Result describes the outcome of an Access.
type Result struct {
	Hit           bool
	WriteBack     bool   // a dirty victim must be written to memory
	WriteBackAddr uint64 // line address of the victim
}

// Access looks up addr, allocating on miss (write-allocate). It returns
// whether the access hit and whether a dirty victim was evicted. The caller
// is responsible for charging miss/write-back traffic to the next level.
func (c *Cache) Access(addr uint64, write bool) Result {
	if c.ways == nil {
		c.ways = make([]way, c.nsets*uint64(c.cfg.Ways))
	}
	set, tag := c.index(addr)
	ways := c.set(set)
	c.tick++
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].used = c.tick
			if write {
				ways[i].dirty = true
			}
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	res := Result{}
	if ways[victim].valid {
		c.Stats.Evictions++
		if ways[victim].dirty {
			c.Stats.WriteBacks++
			res.WriteBack = true
			res.WriteBackAddr = c.lineAddr(set, ways[victim].tag)
		}
	}
	ways[victim] = way{tag: tag, valid: true, dirty: write, used: c.tick}
	return res
}

// Contains reports whether addr is present (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	if c.ways == nil {
		return false
	}
	set, tag := c.index(addr)
	for _, w := range c.set(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return (tag<<c.setShift | set) * mem.LineBytes
}

// Flush invalidates the entire cache and returns the line addresses of all
// dirty lines (the write-back traffic at kernel completion).
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for i := range c.ways {
		w := &c.ways[i]
		if w.valid && w.dirty {
			dirty = append(dirty, c.lineAddr(uint64(i)/uint64(c.cfg.Ways), w.tag))
		}
		*w = way{}
	}
	return dirty
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() sim.Time { return c.cfg.HitLatency }

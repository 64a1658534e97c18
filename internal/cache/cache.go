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

	"repro/internal/sim"
)

// Config describes one cache level.
type Config struct {
	SizeBytes  uint64
	LineBytes  uint64
	Ways       int
	HitLatency sim.Time
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d <= 0", c.Ways)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines == 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache: size %d / line %d not divisible by %d ways", c.SizeBytes, c.LineBytes, c.Ways)
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
	cfg   Config
	sets  [][]way
	setMx uint64 // set index mask
	tick  uint64
	Stats Stats
}

// New builds a cache from cfg; invalid configurations panic (they are
// always construction-time bugs).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	sets := make([][]way, nsets)
	backing := make([]way, nsets*uint64(cfg.Ways))
	for i := range sets {
		sets[i] = backing[uint64(i)*uint64(cfg.Ways) : (uint64(i)+1)*uint64(cfg.Ways)]
	}
	return &Cache{cfg: cfg, sets: sets, setMx: nsets - 1}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr / c.cfg.LineBytes
	return line & c.setMx, line >> uint(popShift(c.setMx))
}

func popShift(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
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
	set, tag := c.index(addr)
	ways := c.sets[set]
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
	set, tag := c.index(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return (tag<<uint(popShift(c.setMx)) | set) * c.cfg.LineBytes
}

// Flush invalidates the entire cache and returns the line addresses of all
// dirty lines (the write-back traffic at kernel completion).
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for set := range c.sets {
		for i := range c.sets[set] {
			w := &c.sets[set][i]
			if w.valid && w.dirty {
				dirty = append(dirty, c.lineAddr(uint64(set), w.tag))
			}
			*w = way{}
		}
	}
	return dirty
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() sim.Time { return c.cfg.HitLatency }

package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// refCache is the reference for Cache: the original implementation, with
// one slice of ways per set allocated up front and the index shift
// recomputed on every access.
type refCache struct {
	cfg   Config
	sets  [][]way
	setMx uint64
	tick  uint64
	Stats Stats
}

func newRef(cfg Config) *refCache {
	nsets := cfg.SizeBytes / mem.LineBytes / uint64(cfg.Ways)
	sets := make([][]way, nsets)
	backing := make([]way, nsets*uint64(cfg.Ways))
	for i := range sets {
		sets[i] = backing[uint64(i)*uint64(cfg.Ways) : (uint64(i)+1)*uint64(cfg.Ways)]
	}
	return &refCache{cfg: cfg, sets: sets, setMx: nsets - 1}
}

func popShift(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

func (c *refCache) index(addr uint64) (set uint64, tag uint64) {
	line := addr / mem.LineBytes
	return line & c.setMx, line >> uint(popShift(c.setMx))
}

func (c *refCache) Access(addr uint64, write bool) Result {
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

func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) lineAddr(set, tag uint64) uint64 {
	return (tag<<uint(popShift(c.setMx)) | set) * mem.LineBytes
}

func (c *refCache) Flush() []uint64 {
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

// TestCacheMatchesReference drives Cache and the reference through the
// same seeded access/write sequences on several shapes (one set, many
// sets, 1 to 16 ways) and requires the same
// Result, Stats, Contains and Flush at every step, including on a cache
// that was never accessed.
func TestCacheMatchesReference(t *testing.T) {
	shapes := []Config{
		{SizeBytes: 256, Ways: 4},    // one set
		{SizeBytes: 4096, Ways: 4},   // 16 sets
		{SizeBytes: 4096, Ways: 1},   // direct-mapped
		{SizeBytes: 16384, Ways: 16}, // 16 sets, 16 ways
		{SizeBytes: 32 << 10, Ways: 4},
	}
	for _, cfg := range shapes {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, ref := New(cfg), newRef(cfg)
			// A footprint a few times the capacity, so sets fill, evict
			// and write back; a third of the addresses go anywhere.
			footprint := 4 * cfg.SizeBytes
			probe := func(step int) {
				addr := rng.Uint64() >> uint(rng.Intn(64))
				if rng.Intn(2) == 0 {
					addr = uint64(rng.Int63n(int64(footprint)))
				}
				if got, want := c.Contains(addr), ref.Contains(addr); got != want {
					t.Fatalf("%+v seed %d step %d: Contains(%#x) = %v, reference %v", cfg, seed, step, addr, got, want)
				}
			}
			if seed == 1 {
				// Never accessed: nothing present, nothing to flush.
				probe(-1)
				if got, want := c.Flush(), ref.Flush(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: untouched Flush = %v, reference %v", cfg, got, want)
				}
			}
			for step := 0; step < 3000; step++ {
				addr := uint64(rng.Int63n(int64(footprint)))
				if rng.Intn(3) == 0 {
					addr = rng.Uint64()
				}
				write := rng.Intn(3) == 0
				if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
					t.Fatalf("%+v seed %d step %d: Access(%#x, %v) = %+v, reference %+v", cfg, seed, step, addr, write, got, want)
				}
				if c.Stats != ref.Stats {
					t.Fatalf("%+v seed %d step %d: Stats %+v, reference %+v", cfg, seed, step, c.Stats, ref.Stats)
				}
				probe(step)
				if rng.Intn(500) == 0 || step == 2999 {
					if got, want := c.Flush(), ref.Flush(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v seed %d step %d: Flush = %v, reference %v", cfg, seed, step, got, want)
					}
				}
			}
		}
	}
}

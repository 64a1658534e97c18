package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 1000}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg()
	bad.LineBytes = 48
	if bad.Validate() == nil {
		t.Error("non-power-of-two line accepted")
	}
	bad = cfg()
	bad.Ways = 3
	if bad.Validate() == nil {
		t.Error("sets not power of two accepted")
	}
	bad = cfg()
	bad.Ways = 0
	if bad.Validate() == nil {
		t.Error("zero ways accepted")
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(cfg())
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1038, false); !r.Hit { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(cfg()) // 16 sets, 4 ways
	// 5 lines in the same set: line addresses differ by setCount*lineBytes.
	const stride = 16 * 64
	for i := 0; i < 5; i++ {
		c.Access(uint64(i)*stride, false)
	}
	// Line 0 (LRU) must be evicted; lines 1-4 present.
	if c.Contains(0) {
		t.Fatal("LRU line not evicted")
	}
	for i := 1; i < 5; i++ {
		if !c.Contains(uint64(i) * stride) {
			t.Fatalf("line %d evicted unexpectedly", i)
		}
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUTouchProtects(t *testing.T) {
	c := New(cfg())
	const stride = 16 * 64
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*stride, false)
	}
	c.Access(0, false) // touch line 0, making line 1 the LRU
	c.Access(4*stride, false)
	if !c.Contains(0) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(stride) {
		t.Fatal("LRU line survived")
	}
}

func TestWriteBackOnDirtyEviction(t *testing.T) {
	c := New(cfg())
	const stride = 16 * 64
	c.Access(0, true) // dirty
	for i := 1; i <= 4; i++ {
		r := c.Access(uint64(i)*stride, false)
		if i < 4 && r.WriteBack {
			t.Fatal("premature write-back")
		}
		if i == 4 {
			if !r.WriteBack || r.WriteBackAddr != 0 {
				t.Fatalf("expected write-back of line 0, got %+v", r)
			}
		}
	}
	if c.Stats.WriteBacks != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestFlushReturnsDirtyLines(t *testing.T) {
	c := New(cfg())
	c.Access(0x0, true)
	c.Access(0x1000, false)
	c.Access(0x2000, true)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("Flush returned %v", dirty)
	}
	seen := map[uint64]bool{}
	for _, a := range dirty {
		seen[a] = true
	}
	if !seen[0x0] || !seen[0x2000] {
		t.Fatalf("wrong dirty lines %v", dirty)
	}
	if c.Contains(0x0) || c.Contains(0x1000) {
		t.Fatal("flush did not invalidate")
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	// Property: evicting a line reports the exact line address inserted.
	f := func(raw uint64) bool {
		c := New(cfg())
		addr := (raw % (1 << 30)) &^ 63
		c.Access(addr, true)
		// Evict by filling the same set with 4 more lines.
		const stride = 16 * 64
		for i := 1; i <= 4; i++ {
			r := c.Access(addr+uint64(i)*stride, false)
			if r.WriteBack {
				return r.WriteBackAddr == addr
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInclusionNeverExceedsCapacity(t *testing.T) {
	c := New(cfg())
	rng := rand.New(rand.NewSource(7))
	present := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		addr := uint64(rng.Intn(1<<20)) &^ 63
		c.Access(addr, rng.Intn(2) == 0)
		present[addr] = true
	}
	count := 0
	for a := range present {
		if c.Contains(a) {
			count++
		}
	}
	if count > 64 { // 4096/64 lines
		t.Fatalf("%d lines resident, capacity is 64", count)
	}
}

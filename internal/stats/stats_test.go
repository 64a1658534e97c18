package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc("a")
	c.Add("a", 4)
	c.Add("b", 7)
	if c.Get("a") != 5 || c.Get("b") != 7 || c.Get("missing") != 0 {
		t.Fatalf("counter values wrong: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names() = %v", names)
	}
}

// TestCounterHandles pins the handle view of Counters against the
// name-keyed one: shared cells, touched-only sorted Names (a bump by zero
// counts), a working zero value, and no aliasing across sets.
func TestCounterHandles(t *testing.T) {
	var c Counters
	if got := c.Get("x"); got != 0 || len(c.Names()) != 0 {
		t.Fatalf("zero Counters: Get = %d, Names = %v", got, c.Names())
	}
	zeta := c.Handle("zeta")
	alpha := c.Handle("alpha")
	c.Handle("never")
	if n := c.Names(); len(n) != 0 {
		t.Fatalf("registered-only handles listed: %v", n)
	}
	zeta.Add(0)
	alpha.Inc()
	c.Add("alpha", 2)
	c.Inc("mid")
	if got := c.Handle("alpha"); got != alpha {
		t.Fatal("Handle returned a second cell for the same name")
	}
	if c.Get("alpha") != 3 || c.Get("zeta") != 0 || c.Get("mid") != 1 || c.Get("never") != 0 {
		t.Fatalf("Get: alpha=%d zeta=%d mid=%d never=%d", c.Get("alpha"), c.Get("zeta"), c.Get("mid"), c.Get("never"))
	}
	if got, want := strings.Join(c.Names(), ","), "alpha,mid,zeta"; got != want {
		t.Fatalf("Names = %s, want %s", got, want)
	}
	var d Counters
	dAlpha := d.Handle("alpha")
	dAlpha.Add(10)
	if dAlpha == alpha || c.Get("alpha") != 3 || d.Get("alpha") != 10 {
		t.Fatalf("handles alias across sets: c=%d d=%d", c.Get("alpha"), d.Get("alpha"))
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4, 16})
	if err != nil || math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean = %v, %v, want 4", got, err)
	}
	if v, err := GeoMean(nil); v != 0 || err != nil {
		t.Fatal("GeoMean(nil) != 0")
	}
}

func TestGeoMeanNonPositive(t *testing.T) {
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Fatal("GeoMean with zero returned no error")
	}
	if _, err := GeoMean([]float64{4, -2}); err == nil {
		t.Fatal("GeoMean with negative returned no error")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Addf("alpha", 1.5)
	tb.Addf("b", 42)
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatalf("missing title:\n%s", s)
	}
	if !strings.Contains(s, "alpha  1.50") {
		t.Fatalf("bad alignment:\n%s", s)
	}
	var csv strings.Builder
	tb.CSV(&csv)
	if !strings.HasPrefix(csv.String(), "name,value\nalpha,1.50\n") {
		t.Fatalf("bad csv:\n%s", csv.String())
	}
}

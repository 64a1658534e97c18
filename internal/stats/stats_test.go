package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
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

func TestDist(t *testing.T) {
	var d Dist
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.Observe(v)
	}
	if d.N != 8 || d.Mean() != 5 {
		t.Fatalf("N=%d mean=%v", d.N, d.Mean())
	}
	if math.Abs(d.Std()-2) > 1e-9 {
		t.Fatalf("Std = %v, want 2", d.Std())
	}
	if d.MinV != 2 || d.MaxV != 9 {
		t.Fatalf("min=%v max=%v", d.MinV, d.MaxV)
	}
}

func TestDistMerge(t *testing.T) {
	var a, b, whole Dist
	samples := []float64{1, 5, 3, 8, 2, 9, 4, 4}
	for i, v := range samples {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.N != whole.N || a.Mean() != whole.Mean() || a.MinV != whole.MinV || a.MaxV != whole.MaxV {
		t.Fatalf("merged %v != whole %v", a.String(), whole.String())
	}
}

func TestDistMergeProperty(t *testing.T) {
	clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
	f := func(xs, ys []float64) bool {
		var a, b, w Dist
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			a.Observe(clamp(x))
			w.Observe(clamp(x))
		}
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			b.Observe(clamp(y))
			w.Observe(clamp(y))
		}
		a.Merge(&b)
		return a.N == w.N && a.MinV == w.MinV && a.MaxV == w.MaxV &&
			math.Abs(a.Sum()-w.Sum()) < 1e-6*(1+math.Abs(w.Sum()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDistWelfordLargeOffset is the regression the Welford rewrite exists
// for: samples with a huge mean and a tiny spread, exactly the shape of
// picosecond latency samples deep into a run. The old Sum/SumSq form
// computes SumSq/N - mean^2 as the difference of two ~1e24 quantities and
// loses the variance entirely (it reported 0, or garbage from rounding).
func TestDistWelfordLargeOffset(t *testing.T) {
	const offset = 1e12 // ~1 second in picoseconds
	var d Dist
	for _, v := range []float64{offset + 2, offset + 4, offset + 4, offset + 4,
		offset + 5, offset + 5, offset + 7, offset + 9} {
		d.Observe(v)
	}
	// Welford keeps ~5 significant digits here; the old formula computed
	// SumSq/N - mean^2 = 0.0 exactly (all digits cancelled).
	if got := d.Std(); math.Abs(got-2) > 1e-3 {
		t.Fatalf("Std with offset %g = %v, want 2", offset, got)
	}
	if got := d.Mean(); math.Abs(got-(offset+5)) > 1e-3 {
		t.Fatalf("Mean = %v, want %v", got, offset+5)
	}
	// The same property must survive a parallel-variance merge.
	var a, b Dist
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		if i%2 == 0 {
			a.Observe(offset + v)
		} else {
			b.Observe(offset + v)
		}
	}
	a.Merge(&b)
	if got := a.Std(); math.Abs(got-2) > 1e-3 {
		t.Fatalf("merged Std with offset = %v, want 2", got)
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

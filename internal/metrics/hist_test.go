package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestBucketRoundTrip checks the bucket mapping is monotone, covers every
// magnitude, and that bucket bounds bracket their values.
func TestBucketRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 1 << 20,
		1<<40 + 12345, 1 << 62, math.MaxUint64}
	prev := -1
	for _, v := range vals {
		idx := bucketOf(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		lo, hi := bucketLow(idx), bucketHigh(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
	}
	// Exhaustive small range: every value below 2^subBits has its own
	// exact bucket.
	for v := uint64(0); v < subCount; v++ {
		if bucketLow(bucketOf(v)) != v || bucketHigh(bucketOf(v)) != v {
			t.Fatalf("small value %d not in an exact bucket", v)
		}
	}
	// Adjacent buckets tile the value space with no gaps or overlaps.
	for idx := 0; idx < numBuckets-1; idx++ {
		if bucketHigh(idx)+1 != bucketLow(idx+1) {
			t.Fatalf("gap between bucket %d (high %d) and %d (low %d)",
				idx, bucketHigh(idx), idx+1, bucketLow(idx+1))
		}
	}
}

// TestHistogramQuantiles checks percentile accuracy against exact order
// statistics on a known distribution: the log-linear scheme bounds the
// relative error at 2^-subBits.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	const n = 100000
	rng := rand.New(rand.NewSource(7))
	exact := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		// Heavy-tailed: mostly ~1000, occasional 100x outliers, like a
		// latency distribution with host-forwarded stragglers.
		v := uint64(900 + rng.Intn(200))
		if rng.Intn(100) == 0 {
			v *= 100
		}
		h.Observe(v)
		exact = append(exact, v)
	}
	sortU64(exact)
	maxRel := 1.0 / subCount
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		want := exact[int(q*float64(n-1))]
		got := h.Quantile(q)
		rel := math.Abs(float64(got)-float64(want)) / float64(want)
		if rel > maxRel {
			t.Errorf("q=%v: got %d, want %d (rel err %.3f > %.3f)", q, got, want, rel, maxRel)
		}
	}
	if h.Quantile(0) != h.min || h.Quantile(1) != h.Max() {
		t.Errorf("extreme quantiles: q0=%d min=%d, q1=%d max=%d",
			h.Quantile(0), h.min, h.Quantile(1), h.Max())
	}
	if h.Count() != n {
		t.Errorf("count %d != %d", h.Count(), n)
	}
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestHistogramMergeExact pins the mergeability contract the parallel
// experiment engine depends on: merging per-worker histograms yields
// bit-identical counts, sum, min/max and quantiles regardless of how the
// samples were split — bucket counters are integers, so merge is exact.
func TestHistogramMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole Histogram
	parts := make([]Histogram, 4)
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63n(1 << 30))
		whole.Observe(v)
		parts[i%4].Observe(v)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
		merged.min != whole.min || merged.Max() != whole.Max() {
		t.Fatalf("merge summary mismatch: %v vs %v", merged.String(), whole.String())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q=%v: merged %d != whole %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	// Merge order must not matter.
	var reversed Histogram
	for i := len(parts) - 1; i >= 0; i-- {
		reversed.Merge(&parts[i])
	}
	if reversed.Quantile(0.99) != merged.Quantile(0.99) || reversed.Sum() != merged.Sum() {
		t.Error("merge is order-sensitive")
	}
}

// TestHistogramEmptyAndSingle covers the degenerate cases reports hit on
// tiny runs.
func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 || h.min != 0 || h.Max() != 0 {
		t.Error("empty histogram not all-zero")
	}
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("single-sample q=%v = %d, want 42", q, got)
		}
	}
	var other Histogram
	other.Merge(&h)
	if other.Quantile(0.5) != 42 || other.Count() != 1 {
		t.Error("merge into empty lost the sample")
	}
}

// BenchmarkHistogramObserve is the hot-path benchmark ci.sh smokes: one
// Observe per simulated packet means this must stay at a few ns.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	h.Observe(1) // pre-allocate outside the loop
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i)*2654435761 + 1000)
	}
}

// BenchmarkHistogramQuantile measures the report-time readout.
func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Observe(uint64(i)*2654435761%1000000 + 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

// Package metrics is the simulator's observability layer: streaming
// latency histograms with percentile readout, a registry of named
// histograms and gauges, a simulation-time sampler for utilization and
// queue-depth time series, and an optional JSONL event tracer.
//
// Everything in this package is deterministic. Histogram buckets are
// integer counters, so merging two histograms is exact and commutative;
// the experiment harness still merges in job-index order (the same
// discipline as internal/exp's runJobs) so that any float aggregation
// layered on top stays byte-identical for every -jobs setting.
//
// Observation is passive: recording a sample never schedules events or
// reserves simulated resources, so attaching a Collector to a system
// cannot perturb its timing. A nil *Collector is the inactive path — every
// method is nil-safe and free of side effects — which keeps un-observed
// runs on the exact pre-metrics code path.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram sub-bucket resolution: each power-of-two octave is split into
// 2^subBits linearly-spaced sub-buckets, bounding the relative quantile
// error at 2^-subBits (~6%). Values below 2^subBits land in exact
// single-value buckets.
const (
	subBits    = 4
	subCount   = 1 << subBits
	numBuckets = (64 - subBits + 1) * subCount // every uint64 value maps below this
)

// Histogram is a log-linear streaming histogram over uint64 samples
// (picosecond latencies, byte counts, depths). The zero value is ready to
// use. Counters are integers, so Merge is exact regardless of order.
type Histogram struct {
	counts []uint64 // allocated lazily, dense [numBuckets]
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // floor(log2(v)), >= subBits
	shift := uint(e - subBits)
	return int((uint64(shift)+1)<<subBits | (v>>shift)&(subCount-1))
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) uint64 {
	if idx < subCount {
		return uint64(idx)
	}
	shift := uint(idx>>subBits) - 1
	return (subCount | uint64(idx&(subCount-1))) << shift
}

// bucketHigh returns the largest value mapping to bucket idx.
func bucketHigh(idx int) uint64 {
	if idx+1 >= numBuckets {
		return math.MaxUint64
	}
	return bucketLow(idx+1) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h.counts == nil {
		h.counts = make([]uint64, numBuckets)
		h.min = v
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the exact integer sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest recorded sample (zero when empty).
func (h *Histogram) Max() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the sample mean (zero when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the q-quantile (q in [0,1]) by locating the bucket of
// the 0-based rank floor(q*(n-1)) and interpolating linearly inside it,
// clamped to the recorded min/max. Empty histograms return zero. The
// computation is a pure function of the bucket counts, so it is
// deterministic across runs and across merge orders.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.n-1)) // 0-based target rank
	var cum uint64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+c {
			lo, hi := bucketLow(idx), bucketHigh(idx)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if hi <= lo || c == 1 {
				return lo
			}
			// Position of the target rank inside this bucket, spread
			// evenly across the bucket's value range.
			frac := (float64(rank-cum) + 0.5) / float64(c)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum += c
	}
	return h.max // unreachable when counts are consistent with n
}

// Merge folds other into h. Bucket counters are integers, so the result
// is exact and independent of merge order.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, numBuckets)
		h.min = other.min
		h.max = other.max
	}
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.n += other.n
	h.sum += other.sum
}

// String summarizes the histogram with the tail percentiles the reports
// use.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.n, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

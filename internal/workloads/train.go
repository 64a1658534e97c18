package workloads

import (
	"math/rand"

	"repro/internal/cores"
	"repro/internal/mem"
	"repro/internal/nmp"
)

// Train is data-parallel mini-batch training of a sparse linear model —
// the canonical AllReduce workload. Each worker holds a shard of the
// sample set and a full replica of the weight vector; every step it
// computes a local gradient over its shard, the workers AllReduce the
// gradient (params * 4 bytes of payload), and everyone applies the same
// update. The exchange is the collective the IDC layer schedules, so the
// step time directly exposes each mechanism's collective cost.
//
// Functional determinism: every per-sample gradient contribution is
// quantized to int64 fixed point (gradScale) before accumulation, so the
// reduction is integer addition — associative and therefore identical for
// any worker count, placement or mechanism.
type Train struct {
	Params  int
	Steps   int
	Samples int
	K       int // nonzero features per sample

	featIdx []int32   // Samples*K feature indices
	featVal []float64 // Samples*K feature values
	label   []float64 // per sample
}

// gradScale is the fixed-point scale for gradient quantization.
const gradScale = 1 << 20

// trainLR is the (scaled) learning rate applied after each AllReduce.
const trainLR = 0.05

// NewTrain builds a deterministic instance: the dataset depends only on
// the shape and seed, never on how many workers later shard it.
func NewTrain(params, steps, samples int, seed int64) *Train {
	if params < 1 {
		params = 1
	}
	if samples < 1 {
		samples = 1
	}
	if steps < 1 {
		steps = 1
	}
	k := 16
	if k > params {
		k = params
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Train{Params: params, Steps: steps, Samples: samples, K: k,
		featIdx: make([]int32, samples*k),
		featVal: make([]float64, samples*k),
		label:   make([]float64, samples),
	}
	for s := 0; s < samples; s++ {
		for j := 0; j < k; j++ {
			t.featIdx[s*k+j] = int32(rng.Intn(params))
			t.featVal[s*k+j] = rng.NormFloat64()
		}
		t.label[s] = rng.NormFloat64()
	}
	return t
}

// Name implements Workload.
func (tr *Train) Name() string { return "TRAIN" }

// gradPayload is the AllReduce payload in bytes (one fp32 per parameter,
// like a framework exchanging packed gradients), clamped to the segment
// limits the transports accept.
func (tr *Train) gradPayload() uint32 {
	return uint32(clampU64(uint64(tr.Params)*4, 1<<20))
}

// Run implements Workload.
func (tr *Train) Run(sys *nmp.System, placement []int, profile bool) (nmp.KernelResult, uint64, error) {
	t := len(placement)
	shard := MakeParts(tr.Samples, t)
	sampleBytes := uint64(tr.K) * 8 // (index, value) pairs
	shard.AllocState(sys, "train.data", sampleBytes, mem.Private)
	// Full weight replica and gradient buffer per worker, on its home DIMM.
	replica := MakeParts(t, t)
	replica.AllocState(sys, "train.w", uint64(tr.Params)*8, mem.Private)
	grads := MakeParts(t, t)
	grads.AllocState(sys, "train.grad", uint64(tr.Params)*8, mem.Private)

	w := make([]float64, tr.Params)
	partial := make([][]int64, t)
	for i := range partial {
		partial[i] = make([]int64, tr.Params)
	}
	total := make([]int64, tr.Params)

	body := func(tid int, c *cores.Ctx) {
		me := tid
		lo, hi := shard.Range(me)
		wBytes := uint64(tr.Params) * 8
		for step := 0; step < tr.Steps; step++ {
			// Read the (locally replicated) weights and my sample shard.
			streamLoad(c, replica.Seg(me), 0, wBytes)
			streamLoad(c, shard.Seg(me), 0, uint64(hi-lo)*sampleBytes)
			c.Compute(uint64(hi-lo) * uint64(tr.K) * 4)
			p := partial[me]
			for i := range p {
				p[i] = 0
			}
			for s := lo; s < hi; s++ {
				pred := 0.0
				base := s * tr.K
				for j := 0; j < tr.K; j++ {
					pred += w[tr.featIdx[base+j]] * tr.featVal[base+j]
				}
				err := pred - tr.label[s]
				for j := 0; j < tr.K; j++ {
					// Quantize each contribution independently so the sum is
					// shard-partitioning-invariant integer arithmetic.
					p[tr.featIdx[base+j]] += int64(err * tr.featVal[base+j] * gradScale)
				}
			}
			streamStore(c, grads.Seg(me), 0, wBytes)
			// Exchange gradients: the IDC collective is the step's sync point.
			c.AllReduce(tr.gradPayload())
			// Everyone owns the reduced gradient now; worker 0 applies the
			// update to the shared model (the engine's single-resumption rule
			// serializes this with the barrier below).
			if me == 0 {
				for i := range total {
					total[i] = 0
				}
				for q := 0; q < t; q++ {
					for i, v := range partial[q] {
						total[i] += v
					}
				}
				inv := trainLR / (gradScale * float64(tr.Samples))
				for i := range w {
					w[i] -= float64(total[i]) * inv
				}
			}
			c.Compute(uint64(tr.Params))
			streamStore(c, replica.Seg(me), 0, wBytes)
			c.Barrier()
		}
	}
	res, err := runPlaced(sys, placement, profile, body)
	if err != nil {
		return nmp.KernelResult{}, 0, err
	}
	return res, hashFloats(w), nil
}

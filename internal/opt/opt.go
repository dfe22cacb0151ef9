// Package opt implements the local (client-side) optimizers and learning-rate
// schedules used by Photon: AdamW with decoupled weight decay (the paper's
// ClientOpt), and the cosine-with-warmup
// schedule whose decay period follows the Appendix C.1 rule (Eq. 8): the
// period is set for the *hardware* batch size Bc rather than the effective
// federated batch, which is what lets Photon pair small client batches with
// high learning rates.
package opt

import (
	"math"

	"photon/internal/nn"
	"photon/internal/tensor"
)

// Optimizer updates model parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update with the given learning rate and then leaves
	// gradients untouched (callers zero them).
	Step(params nn.ParamSet, lr float64)
	// Reset clears all internal state (momenta, step counters). Photon
	// clients call this at every round boundary: the paper uses stateless
	// local optimization so optimizer state never needs to be communicated
	// or persisted across intermittent client availability. Capacity is
	// kept so per-round Resets do not reallocate optimizer state.
	Reset()
	// Name identifies the optimizer in metrics and checkpoints.
	Name() string
}

// ensureState sizes each state buffer to its parameter, reusing capacity and
// zeroing any buffer it (re)creates. It reports buffers ready for use.
//
//photon:allocok
func ensureState(bufs [][]float32, params nn.ParamSet) [][]float32 {
	if len(bufs) != len(params) {
		bufs = make([][]float32, len(params))
	}
	for i, p := range params {
		if len(bufs[i]) != len(p.Data) {
			bufs[i] = make([]float32, len(p.Data))
		}
	}
	return bufs
}

// AdamW is Adam with decoupled weight decay (Loshchilov & Hutter), the
// paper's local optimizer with (β1, β2) from Table 4.
//
// Step is a single fused pass per parameter: moment update, bias correction,
// weight decay, and parameter update happen in one float32 sweep (the
// per-element float64 round trips of the original implementation cost more
// than the precision is worth), parallelized across the tensor worker pool
// for large tensors. Each band is tensor.AdamW, eight lanes at a time where
// the tensor kernels have an AVX2 body, with the Go loop's bits.
type AdamW struct {
	Beta1, Beta2 float64
	Eps          float64 // 0 → 1e-8
	WeightDecay  float64

	step int
	m, v [][]float32

	// Per-band state for the persistent parallel closure (one parameter at a
	// time): the step's float32 factors plus the current parameter/state
	// slices.
	curData, curGrad, curM, curV []float32
	f                            tensor.AdamWFactors
	fn                           func(lo, hi int)
}

// NewAdamW constructs AdamW with the given betas and weight decay.
func NewAdamW(beta1, beta2, weightDecay float64) *AdamW {
	return &AdamW{Beta1: beta1, Beta2: beta2, Eps: 1e-8, WeightDecay: weightDecay}
}

// Name implements Optimizer.
func (a *AdamW) Name() string { return "adamw" }

// Reset implements Optimizer by clearing the bias-correction step counter.
// The momenta keep their buffers — Photon resets at every round boundary,
// and reallocating two model-sized vectors per round per client thrashed
// the GC — and their values, unread: the first Step after a Reset takes
// them as zeros (tensor.AdamWFactors.Fresh) and overwrites them.
//
//photon:hotpath
func (a *AdamW) Reset() {
	a.step = 0
}

// band applies the fused AdamW update to elements [lo, hi) of the current
// parameter. It is the persistent body dispatched across the worker pool.
//
//photon:hotpath
func (a *AdamW) band(lo, hi int) {
	tensor.AdamW(a.curData[lo:hi], a.curGrad[lo:hi], a.curM[lo:hi], a.curV[lo:hi], &a.f)
}

// Step applies one fused AdamW update.
//
//photon:hotpath
func (a *AdamW) Step(params nn.ParamSet, lr float64) {
	a.m = ensureState(a.m, params)
	a.v = ensureState(a.v, params)
	a.ensureFn()
	a.step++
	eps := a.Eps
	if eps == 0 {
		eps = 1e-8
	}
	b1, b2 := a.Beta1, a.Beta2
	a.f = tensor.AdamWFactors{
		B1: float32(b1), OB1: float32(1 - b1),
		B2: float32(b2), OB2: float32(1 - b2),
		InvC1: float32(1 / (1 - math.Pow(b1, float64(a.step)))),
		InvC2: float32(1 / (1 - math.Pow(b2, float64(a.step)))),
		LR:    float32(lr),
		WD:    float32(lr * a.WeightDecay),
		Eps:   float32(eps),
		Fresh: a.step == 1,
	}
	for i, p := range params {
		a.curData, a.curGrad, a.curM, a.curV = p.Data, p.Grad, a.m[i], a.v[i]
		// ~16 flop-equivalents per element (the sqrt dominates).
		tensor.Parallel(len(p.Data), 16, a.fn)
	}
	a.curData, a.curGrad, a.curM, a.curV = nil, nil, nil, nil
}

// ensureFn binds the persistent band closure on first use; the method-value
// allocation happens once, off the steady-state step path.
//
//photon:allocok
func (a *AdamW) ensureFn() {
	if a.fn == nil {
		a.fn = a.band
	}
}

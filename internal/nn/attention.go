package nn

import (
	"math"
	"math/rand"

	"photon/internal/tensor"
)

// Attention implements multi-head causal self-attention with ALiBi
// positional biases (the MPT positional scheme): score(i,j) gets an additive
// bias slope_h·(j−i) for j ≤ i, and −∞ for j > i.
//
// The hot path is expressed entirely in batched, cache-blocked kernels: the
// fused QKV activation is re-materialized into contiguous per-head [T, d]
// panels, and scores / softmax / context become three batched matrix products
// per (batch × head) work item dispatched across the tensor worker pool —
// instead of the former triple scalar loops on one goroutine. Every
// intermediate lives in the model's workspace, so a warm step allocates
// nothing.
type Attention struct {
	Dim, Heads, HeadDim int

	QKV *Linear // fused projection Dim -> 3·Dim
	Out *Linear // output projection Dim -> Dim
	sl  []float32

	// caches for backward (workspace lifetime: valid until the next Reset)
	q, k, v    *tensor.Matrix // per-head panels [B·H·T, d]
	probs      *tensor.Matrix // attention probabilities [B·H·T, T]
	batch, seq int
}

// NewAttention creates the attention sublayer.
func NewAttention(name string, dim, heads int, std float64, rng *rand.Rand) *Attention {
	return &Attention{
		Dim: dim, Heads: heads, HeadDim: dim / heads,
		QKV: NewLinear(name+".qkv", dim, 3*dim, std, rng),
		Out: NewLinear(name+".out", dim, dim, std, rng),
		sl:  AlibiSlopes(heads),
	}
}

// Params returns all attention parameters.
func (a *Attention) Params() ParamSet {
	return append(a.QKV.Params(), a.Out.Params()...)
}

// gatherPanels re-materializes the fused QKV activation [B·T, 3D] into three
// contiguous per-head panels [B·H·T, d] so the batched kernels stream unit-
// stride rows instead of striding across the fused layout.
//
//photon:hotpath
func (a *Attention) gatherPanels(qkv, q, k, v *tensor.Matrix, batch, seq int) {
	hd := a.HeadDim
	for b := 0; b < batch; b++ {
		for h := 0; h < a.Heads; h++ {
			base := (b*a.Heads + h) * seq
			qo, ko, vo := h*hd, a.Dim+h*hd, 2*a.Dim+h*hd
			for t := 0; t < seq; t++ {
				src := qkv.Row(b*seq + t)
				copy(q.Row(base+t), src[qo:qo+hd])
				copy(k.Row(base+t), src[ko:ko+hd])
				copy(v.Row(base+t), src[vo:vo+hd])
			}
		}
	}
}

// scatterPanels is the inverse of gatherPanels for the gradient side: it
// writes per-head dQ/dK/dV panels back into the fused dQKV layout.
//
//photon:hotpath
func (a *Attention) scatterPanels(dqkv, dq, dk, dv *tensor.Matrix, batch, seq int) {
	hd := a.HeadDim
	for b := 0; b < batch; b++ {
		for h := 0; h < a.Heads; h++ {
			base := (b*a.Heads + h) * seq
			qo, ko, vo := h*hd, a.Dim+h*hd, 2*a.Dim+h*hd
			for t := 0; t < seq; t++ {
				dst := dqkv.Row(b*seq + t)
				copy(dst[qo:qo+hd], dq.Row(base+t))
				copy(dst[ko:ko+hd], dk.Row(base+t))
				copy(dst[vo:vo+hd], dv.Row(base+t))
			}
		}
	}
}

// gatherCtx copies the interleaved-head matrix [B·T, D] into per-head panels
// [B·H·T, d]; scatterCtx is its inverse.
//
//photon:hotpath
func (a *Attention) gatherCtx(panels, x *tensor.Matrix, batch, seq int) {
	hd := a.HeadDim
	for b := 0; b < batch; b++ {
		for h := 0; h < a.Heads; h++ {
			base := (b*a.Heads + h) * seq
			off := h * hd
			for t := 0; t < seq; t++ {
				copy(panels.Row(base+t), x.Row(b*seq + t)[off:off+hd])
			}
		}
	}
}

//photon:hotpath
func (a *Attention) scatterCtx(x, panels *tensor.Matrix, batch, seq int) {
	hd := a.HeadDim
	for b := 0; b < batch; b++ {
		for h := 0; h < a.Heads; h++ {
			base := (b*a.Heads + h) * seq
			off := h * hd
			for t := 0; t < seq; t++ {
				copy(x.Row(b*seq + t)[off:off+hd], panels.Row(base+t))
			}
		}
	}
}

// Forward runs attention over x laid out as [B·T, D] with the given batch
// and sequence dimensions.
//
//photon:hotpath
func (a *Attention) Forward(ws *Workspace, x *tensor.Matrix, batch, seq int) *tensor.Matrix {
	a.batch, a.seq = batch, seq
	items := batch * a.Heads
	n, hd := batch*seq, a.HeadDim
	scale := float32(1 / math.Sqrt(float64(hd)))

	qkv := a.QKV.Forward(ws, x) // [N, 3D]
	a.q, a.k, a.v = ws.Take(items*seq, hd), ws.Take(items*seq, hd), ws.Take(items*seq, hd)
	a.gatherPanels(qkv, a.q, a.k, a.v, batch, seq)

	// Scores, mask+softmax, context: three batched kernels per head item.
	a.probs = ws.Take(items*seq, seq)
	tensor.BatchMatMulTransBCausal(a.probs, a.q, a.k, items)
	tensor.CausalSoftmaxRows(a.probs, batch, a.Heads, a.sl, scale)
	ctxP := ws.Take(items*seq, hd)
	tensor.BatchMatMulCausal(ctxP, a.probs, a.v, items)

	ctx := ws.Take(n, a.Dim) // concatenated head outputs
	a.scatterCtx(ctx, ctxP, batch, seq)
	return a.Out.Forward(ws, ctx)
}

// Backward propagates gradients through the attention sublayer and returns
// dX. Parameter gradients accumulate into the projection layers.
//
//photon:hotpath
func (a *Attention) Backward(ws *Workspace, dy *tensor.Matrix) *tensor.Matrix {
	batch, seq, hd := a.batch, a.seq, a.HeadDim
	items := batch * a.Heads
	scale := float32(1 / math.Sqrt(float64(hd)))

	dctx := a.Out.Backward(ws, dy) // [N, D]
	dctxP := ws.Take(items*seq, hd)
	a.gatherCtx(dctxP, dctx, batch, seq)

	// dP = dCtx·Vᵀ on the causal support; dV = Pᵀ·dCtx.
	dp := ws.Take(items*seq, seq)
	tensor.BatchMatMulTransBCausal(dp, dctxP, a.v, items)
	dv := ws.Take(items*seq, hd)
	tensor.BatchMatMulTransA(dv, a.probs, dctxP, items)

	// Softmax backward (score scale folded in): dp becomes dS.
	tensor.CausalSoftmaxGradRows(dp, a.probs, batch, a.Heads, scale)

	// dQ = dS·K ; dK = dSᵀ·Q.
	dq := ws.Take(items*seq, hd)
	tensor.BatchMatMulCausal(dq, dp, a.k, items)
	dk := ws.Take(items*seq, hd)
	tensor.BatchMatMulTransA(dk, dp, a.q, items)

	dqkv := ws.Take(batch*seq, 3*a.Dim)
	a.scatterPanels(dqkv, dq, dk, dv, batch, seq)
	return a.QKV.Backward(ws, dqkv)
}

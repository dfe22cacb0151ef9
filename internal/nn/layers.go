package nn

import (
	"math"
	"math/rand"

	"photon/internal/tensor"
)

// Linear is a dense projection Y = X·W with no bias (MPT style). W has
// shape [In, Out] so rows of X are multiplied from the right, matching the
// row-major activation layout used throughout the model.
type Linear struct {
	In, Out int
	W       *Param

	x *tensor.Matrix // cached input for backward (workspace lifetime)
	// Persistent matrix headers over W.Data/W.Grad: wrapping them per call
	// would heap-allocate a header on every forward/backward.
	wMat, dwMat tensor.Matrix
}

// NewLinear creates a Linear layer with N(0, std²) weight init.
func NewLinear(name string, in, out int, std float64, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, W: newParam(name+".w", in*out)}
	tensor.RandNormal(rng, l.W.Data, 0, std)
	l.wMat = tensor.Matrix{Rows: in, Cols: out, Data: l.W.Data}
	l.dwMat = tensor.Matrix{Rows: in, Cols: out, Data: l.W.Grad}
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() ParamSet { return ParamSet{l.W} }

// Forward computes Y = X·W into a workspace matrix, caching X for
// backward.
//
//photon:hotpath
func (l *Linear) Forward(ws *Workspace, x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	return l.forward(ws, x)
}

// forward is Forward without the backward cache. The decode path calls it
// directly, so decoders sharing the layer's weights never write to the layer.
//
//photon:hotpath
func (l *Linear) forward(ws *Workspace, x *tensor.Matrix) *tensor.Matrix {
	y := ws.Take(x.Rows, l.Out)
	tensor.MatMul(y, x, &l.wMat)
	return y
}

// Backward accumulates dW and returns dX.
//
//photon:hotpath
func (l *Linear) Backward(ws *Workspace, dy *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulTransAAccum(&l.dwMat, l.x, dy) // dW += Xᵀ·dY
	dx := ws.Take(l.x.Rows, l.In)
	tensor.MatMulTransB(dx, dy, &l.wMat) // dX = dY·Wᵀ
	return dx
}

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned affine transform.
type LayerNorm struct {
	Dim  int
	G, B *Param

	xhat *tensor.Matrix // cached normalized input (workspace lifetime)
	rstd []float32      // cached reciprocal std per row (cap-grow)
}

// NewLayerNorm creates a LayerNorm with gain 1 and bias 0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{Dim: dim, G: newParam(name+".g", dim), B: newParam(name+".b", dim)}
	tensor.Fill(ln.G.Data, 1)
	return ln
}

// Params returns the layer's trainable parameters.
func (ln *LayerNorm) Params() ParamSet { return ParamSet{ln.G, ln.B} }

const lnEps = 1e-5

// Forward normalizes each row of x, caching the normalized rows and their
// reciprocal stds for backward.
//
//photon:hotpath
func (ln *LayerNorm) Forward(ws *Workspace, x *tensor.Matrix) *tensor.Matrix {
	ln.xhat = ws.Take(x.Rows, x.Cols)
	ln.rstd = growF32(ln.rstd, x.Rows)
	return ln.forward(ws, x, ln.xhat, ln.rstd)
}

// forward is Forward's body. xhat and rstd receive the backward cache; the
// decode path passes nil for both and the layer is only read. Here and in
// Backward every product is converted, so no compiler fuses it (arm64 would).
//
//photon:hotpath
func (ln *LayerNorm) forward(ws *Workspace, x, xhat *tensor.Matrix, rstd []float32) *tensor.Matrix {
	y := ws.Take(x.Rows, x.Cols)
	d := float64(x.Cols)
	// Read through ln inside the loops, the parameter slices would be
	// reloaded and bounds-checked on every element (the loops' stores might
	// alias them), so they are taken once, cut to the row length.
	n := x.Cols
	gain, bias := ln.G.Data[:n], ln.B.Data[:n]
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)[:n]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= d
		var varr float64
		for _, v := range row {
			dv := float64(v) - mean
			varr += float64(dv * dv)
		}
		varr /= d
		r := float32(1 / math.Sqrt(varr+lnEps))
		yr := y.Row(i)
		// Without a cache the normalized value is parked in y's own row,
		// which the next statement overwrites: the same arithmetic either way.
		xh := yr
		if xhat != nil {
			rstd[i] = r
			xh = xhat.Row(i)
		}
		xh, yr = xh[:n], yr[:n]
		for j, v := range row {
			h := (v - float32(mean)) * r
			xh[j] = h
			yr[j] = float32(gain[j]*h) + bias[j]
		}
	}
	return y
}

// Backward accumulates dG, dB and returns dX.
//
//photon:hotpath
func (ln *LayerNorm) Backward(ws *Workspace, dy *tensor.Matrix) *tensor.Matrix {
	dx := ws.Take(dy.Rows, dy.Cols)
	d := float32(dy.Cols)
	n := dy.Cols // parameter slices taken once, as in forward
	gain, dgain, dbias := ln.G.Data[:n], ln.G.Grad[:n], ln.B.Grad[:n]
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)[:n]
		xh, dxr := ln.xhat.Row(i)[:n], dx.Row(i)[:n]
		// Parameter gradients.
		for j, g := range dyr {
			dgain[j] += float32(g * xh[j])
			dbias[j] += g
		}
		// Input gradient: dx = rstd*(dxhat - mean(dxhat) - xhat*mean(dxhat⊙xhat)).
		var sum1, sum2 float32
		for j, g := range dyr {
			dxh := float32(g * gain[j])
			sum1 += dxh
			sum2 += float32(dxh * xh[j])
		}
		m1, m2 := sum1/d, sum2/d
		rstd := ln.rstd[i]
		for j, g := range dyr {
			dxh := float32(g * gain[j])
			dxr[j] = rstd * (dxh - m1 - float32(xh[j]*m2))
		}
	}
	return dx
}

// GELU applies the tanh-approximated Gaussian error linear unit into a
// workspace matrix. The training forward also writes the derivative
// GELU′(x), from the same tanh, for backward.
type GELU struct {
	x  *tensor.Matrix // the input, for tests that look at the pre-activations
	dg *tensor.Matrix // GELU′(x), which Backward turns into dX in place
}

// Forward applies GELU element-wise and caches its derivative.
//
//photon:hotpath
func (g *GELU) Forward(ws *Workspace, x *tensor.Matrix) *tensor.Matrix {
	y := ws.Take(x.Rows, x.Cols)
	g.x, g.dg = x, ws.Take(x.Rows, x.Cols)
	tensor.GELUWithGrad(y.Data, g.dg.Data, x.Data)
	return y
}

// gelu is GELU.Forward without the backward cache.
//
//photon:hotpath
func gelu(ws *Workspace, x *tensor.Matrix) *tensor.Matrix {
	y := ws.Take(x.Rows, x.Cols)
	tensor.GELU(y.Data, x.Data)
	return y
}

// Backward returns dX = dY·GELU′(X), computed in the derivative the forward
// cached: one forward serves one backward.
//
//photon:hotpath
func (g *GELU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	tensor.Mul(g.dg.Data, dy.Data)
	return g.dg
}

// Embedding maps token ids to dense vectors. The same table is used as the
// (tied) output projection by the model.
type Embedding struct {
	Vocab, Dim int
	W          *Param

	tokens []int // cached ids for backward scatter
}

// NewEmbedding creates an embedding table with N(0, std²) init.
func NewEmbedding(name string, vocab, dim int, std float64, rng *rand.Rand) *Embedding {
	e := &Embedding{Vocab: vocab, Dim: dim, W: newParam(name, vocab*dim)}
	tensor.RandNormal(rng, e.W.Data, 0, std)
	return e
}

// Params returns the embedding table.
func (e *Embedding) Params() ParamSet { return ParamSet{e.W} }

// Forward gathers rows for the given token ids. Panics on out-of-range ids —
// that is a data-pipeline bug, not a recoverable condition. tokens is
// retained until the next Backward.
//
//photon:hotpath
func (e *Embedding) Forward(ws *Workspace, tokens []int) *tensor.Matrix {
	e.tokens = tokens
	return e.forward(ws, tokens)
}

// forward is Forward without the backward cache.
//
//photon:hotpath
func (e *Embedding) forward(ws *Workspace, tokens []int) *tensor.Matrix {
	y := ws.Take(len(tokens), e.Dim)
	for i, id := range tokens {
		if id < 0 || id >= e.Vocab {
			panic("nn: token id out of vocabulary range")
		}
		copy(y.Row(i), e.W.Data[id*e.Dim:(id+1)*e.Dim])
	}
	return y
}

// Backward scatter-adds dY rows into the embedding gradient.
//
//photon:hotpath
func (e *Embedding) Backward(dy *tensor.Matrix) {
	for i, id := range e.tokens {
		tensor.Add(e.W.Grad[id*e.Dim:(id+1)*e.Dim], dy.Row(i))
	}
}

// AlibiSlopes returns the per-head ALiBi slopes using the geometric sequence
// from the ALiBi paper: for h heads, slope_i = 2^(-8(i+1)/h).
//
//photon:allocok
func AlibiSlopes(heads int) []float32 {
	slopes := make([]float32, heads)
	for i := range slopes {
		slopes[i] = float32(math.Pow(2, -8*float64(i+1)/float64(heads)))
	}
	return slopes
}

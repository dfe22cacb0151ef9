// Package nn implements the decoder-only transformer language model trained
// by Photon, in the style of the MPT family the paper uses: pre-LayerNorm
// blocks, multi-head causal self-attention with ALiBi positional biases, a
// 4x GELU MLP, no biases on projections, and a token embedding tied to the
// output projection.
//
// Forward and backward passes are written by hand (no autograd): each layer
// caches the activations its backward pass needs. The model exposes its
// parameters as a flat list of named tensors so optimizers and the federated
// aggregation layer can treat the model as a single parameter vector.
package nn

import (
	"fmt"
	"math"

	"photon/internal/tensor"
)

// Param is a named trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	Data []float32
	Grad []float32
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float32, n), Grad: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
//
//photon:hotpath
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// ParamSet is an ordered collection of parameters, the unit exchanged
// between Photon clients and the aggregator.
type ParamSet []*Param

// NumElements returns the total number of scalar parameters.
//
//photon:hotpath
func (ps ParamSet) NumElements() int {
	n := 0
	for _, p := range ps {
		n += len(p.Data)
	}
	return n
}

// Flatten copies all parameter values into a single vector, allocating it if
// dst is nil or mis-sized. The layout is the concatenation of parameters in
// set order, which is deterministic for a given model configuration.
//
//photon:allocok
func (ps ParamSet) Flatten(dst []float32) []float32 {
	n := ps.NumElements()
	if len(dst) != n {
		dst = make([]float32, n)
	}
	off := 0
	for _, p := range ps {
		copy(dst[off:], p.Data)
		off += len(p.Data)
	}
	return dst
}

// LoadFlat copies a flat vector produced by Flatten back into the
// parameters. It returns an error if the vector length does not match.
//
//photon:hotpath
func (ps ParamSet) LoadFlat(src []float32) error {
	if len(src) != ps.NumElements() {
		return flatLenError(len(src), ps.NumElements())
	}
	off := 0
	for _, p := range ps {
		copy(p.Data, src[off:off+len(p.Data)])
		off += len(p.Data)
	}
	return nil
}

// ZeroGrads clears every gradient in the set.
//
//photon:hotpath
func (ps ParamSet) ZeroGrads() {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// GradNorm returns the global L2 norm across all gradients.
//
//photon:hotpath
func (ps ParamSet) GradNorm() float64 {
	var s float64
	for _, p := range ps {
		for _, g := range p.Grad {
			s += float64(float64(g) * float64(g))
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm scales all gradients so the global norm does not exceed
// maxNorm, and returns the pre-clip norm. A maxNorm <= 0 disables clipping.
//
//photon:hotpath
func (ps ParamSet) ClipGradNorm(maxNorm float64) float64 {
	norm := ps.GradNorm()
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := float32(maxNorm / norm)
	for _, p := range ps {
		tensor.Scale(scale, p.Grad)
	}
	return norm
}

// flatLenError builds LoadFlat's mismatch error off the hot path, so the
// matching-length case stays allocation-free.
//
//photon:allocok
func flatLenError(got, want int) error {
	return fmt.Errorf("nn: flat vector has %d elements, model has %d", got, want)
}

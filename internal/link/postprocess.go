package link

import (
	"fmt"
	"math"
	"math/rand"
)

// PostProcessor transforms a client's update vector before transmission —
// the extensible pipeline of Algorithm 1 line 27 (PostProcess).
type PostProcessor interface {
	// Apply transforms the update in place (it may also return a replacement
	// slice) and returns an error if the update is unusable.
	Apply(update []float32) ([]float32, error)
	// Name identifies the stage for logging.
	Name() string
}

// Pipeline chains post-processors in order.
type Pipeline []PostProcessor

// Apply runs all stages.
func (p Pipeline) Apply(update []float32) ([]float32, error) {
	var err error
	for _, stage := range p {
		update, err = stage.Apply(update)
		if err != nil {
			return nil, fmt.Errorf("link: post-process stage %s: %w", stage.Name(), err)
		}
	}
	return update, nil
}

// ClipL2 rescales the update to a maximum L2 norm (gradient clipping at the
// update level).
type ClipL2 struct{ MaxNorm float64 }

// Name implements PostProcessor.
func (ClipL2) Name() string { return "clip-l2" }

// Apply implements PostProcessor.
func (c ClipL2) Apply(update []float32) ([]float32, error) {
	if c.MaxNorm <= 0 {
		return update, nil
	}
	var s float64
	for _, v := range update {
		s += float64(v) * float64(v)
	}
	norm := math.Sqrt(s)
	if norm <= c.MaxNorm || norm == 0 {
		return update, nil
	}
	scale := float32(c.MaxNorm / norm)
	for i := range update {
		update[i] *= scale
	}
	return update, nil
}

// DPNoise adds Gaussian noise of the given standard deviation to every
// coordinate (local differential-privacy mechanism; calibrating σ to an
// (ε,δ) budget is the caller's responsibility).
type DPNoise struct {
	Sigma float64
	Rng   *rand.Rand
}

// Name implements PostProcessor.
func (DPNoise) Name() string { return "dp-noise" }

// Apply implements PostProcessor.
func (d DPNoise) Apply(update []float32) ([]float32, error) {
	if d.Sigma < 0 {
		return nil, fmt.Errorf("negative sigma %v", d.Sigma)
	}
	if d.Sigma == 0 {
		return update, nil
	}
	rng := d.Rng
	if rng == nil {
		return nil, fmt.Errorf("DPNoise requires an explicit Rng")
	}
	for i := range update {
		update[i] += float32(rng.NormFloat64() * d.Sigma)
	}
	return update, nil
}

// NaNGuard rejects updates containing NaN or Inf values, protecting the
// aggregator from divergent clients.
type NaNGuard struct{}

// Name implements PostProcessor.
func (NaNGuard) Name() string { return "nan-guard" }

// Apply implements PostProcessor.
func (NaNGuard) Apply(update []float32) ([]float32, error) {
	for i, v := range update {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("non-finite value at index %d", i)
		}
	}
	return update, nil
}

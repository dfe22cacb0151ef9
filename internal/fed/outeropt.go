// Package fed implements Photon's federated optimization core — the paper's
// primary contribution. It provides Algorithm 1 end to end: the Aggregator
// round loop with uniform client sampling and partial participation, the
// server-side outer optimizers (FedAvg, FedAvg with server momentum, and
// DiLoCo's outer Nesterov SGD used as the state-of-the-art baseline), the
// LLM client local training pipeline with stateless AdamW, hardware-driven
// strategy selection including nested sub-federations (lines 19–25), dropout
// handling, checkpointing, and a networked aggregator/client over the link
// transport that Run also drives in one process, over in-memory links.
package fed

import (
	"fmt"
	"slices"

	"photon/internal/tensor"
)

// OuterOpt is the server optimizer of Algorithm 1 line 9: it consumes the
// round's pseudo-gradient Δt = θt − mean_k(θt_k) and updates the global
// parameters in place.
type OuterOpt interface {
	// Step applies θ_{t+1} = ServerOpt(θ_t, −Δ_t, t).
	Step(global, delta []float32, round int)
	// Name identifies the optimizer in logs and checkpoints.
	Name() string
}

// OuterState is implemented by server optimizers that carry state across
// rounds (momentum buffers). The durable control plane snapshots it into
// the WAL at every compaction and restores it on resume, then re-steps it
// through the windows committed since, so a restarted aggregator's
// optimizer continues from the exact pre-crash trajectory.
// FedAvg is stateless and does not implement it.
type OuterState interface {
	// Snapshot returns a copy of the optimizer state (nil before the
	// first step).
	Snapshot() []float32
	// Restore replaces the optimizer state with a copy of s; nil or empty
	// resets to the fresh-optimizer state.
	Restore(s []float32) error
}

// FedAvg is federated averaging with server learning rate ηs: the paper's
// default is ηs = 1, which makes the new global model exactly the mean of
// the client models. Photon's headline recipe is FedAvg(1.0) combined with
// small local batches and high client learning rates.
type FedAvg struct {
	LR float64 // ηs; 0 means 1.0
}

// Name implements OuterOpt.
func (f FedAvg) Name() string { return "fedavg" }

// Step implements OuterOpt: θ ← θ − ηs·Δ.
func (f FedAvg) Step(global, delta []float32, _ int) {
	lr := f.LR
	if lr == 0 {
		lr = 1
	}
	tensor.Axpy(float32(-lr), delta, global)
}

// momentum is server momentum over pseudo-gradients, the state FedMom and
// DiLoCo share: one velocity buffer v ← µv + Δ. FedMom steps θ ← θ − ηs·v;
// DiLoCo's Nesterov form steps by the look-ahead θ ← θ − ηs·(Δ + µv).
type momentum struct {
	name     string
	lr, mu   float64 // ηs, µs
	nesterov bool
	v        []float32
}

// NewFedMom constructs FedAvg with server momentum (FedAvgM / federated
// momentum): the pseudo-gradient accumulates into a velocity buffer before
// being applied. The paper's Table 5 sweeps µs ∈ {0, 0.9}.
func NewFedMom(lr, mu float64) OuterOpt { return &momentum{name: "fedmom", lr: lr, mu: mu} }

// NewDiLoCo constructs the outer optimizer of Douillard et al.: SGD with
// Nesterov momentum over pseudo-gradients, the baseline Photon is compared
// against in Table 3 and Figure 8 (recommended µ = 0.9; the only stable
// server learning rate in the paper's sweep was ηs = 0.1).
func NewDiLoCo(lr, mu float64) OuterOpt {
	return &momentum{name: "diloco", lr: lr, mu: mu, nesterov: true}
}

// Name implements OuterOpt.
func (m *momentum) Name() string { return m.name }

// Step implements OuterOpt.
func (m *momentum) Step(global, delta []float32, _ int) {
	if m.v == nil {
		m.v = make([]float32, len(global))
	}
	mu := float32(m.mu)
	lr := float32(m.lr)
	// Each product is converted, so no compiler fuses it (arm64 would).
	for i, g := range delta {
		m.v[i] = float32(mu*m.v[i]) + g
		step := m.v[i]
		if m.nesterov {
			step = g + float32(mu*m.v[i])
		}
		global[i] -= float32(lr * step)
	}
}

// Snapshot implements OuterState: the velocity buffer.
func (m *momentum) Snapshot() []float32 { return slices.Clone(m.v) }

// Restore implements OuterState.
func (m *momentum) Restore(s []float32) error {
	if len(s) == 0 {
		m.v = nil
		return nil
	}
	if m.v != nil && len(m.v) != len(s) {
		return fmt.Errorf("fed: %s state size changed: %d vs snapshot %d", m.name, len(m.v), len(s))
	}
	m.v = slices.Clone(s)
	return nil
}

// MeanDelta computes the round pseudo-gradient Δt = mean_k(θt − θt_k) from
// the surviving clients' updates (each update is already θt − θt_k). It
// errors on an empty or ragged set.
func MeanDelta(updates [][]float32) ([]float32, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fed: no client updates to aggregate")
	}
	var f meanFold
	f.reset(len(updates[0]))
	for i, u := range updates {
		if len(u) != len(f.sum) {
			return nil, fmt.Errorf("fed: update %d has %d params, want %d", i, len(u), len(f.sum))
		}
		f.add(u, 1)
	}
	return f.mean(), nil
}

// meanFold is the one fold every tier aggregates with: each update is added
// to a running weighted sum as it arrives, so no driver holds a cohort. Sync,
// relay and sub-federation fold at weight 1, async at 1/(1+s)^α.
// At weight 1 add rounds u+sum once, as tensor.Add does, and
// float32(1/float64(n)) == 1/float32(n) for n ≤ 2²², so the uniform mean is
// bit-for-bit the sum-then-scale of a held cohort.
type meanFold struct {
	sum    []float32
	weight float64 // Σ weights folded
	n      int     // updates folded
}

// reset empties the fold for n-element updates, reusing its buffer.
func (f *meanFold) reset(n int) {
	if cap(f.sum) < n {
		f.sum = make([]float32, n)
	}
	f.sum = f.sum[:n]
	clear(f.sum)
	f.weight, f.n = 0, 0
}

// add folds one update at weight w: sum += w·u.
//
//photon:hotpath
func (f *meanFold) add(u []float32, w float64) {
	tensor.Axpy(float32(w), u, f.sum)
	f.weight += w
	f.n++
}

// mean scales the sum by 1/Σw in place and returns it: the weighted mean,
// valid until the next reset. It needs at least one add.
//
//photon:hotpath
func (f *meanFold) mean() []float32 {
	tensor.Scale(float32(1/f.weight), f.sum)
	return f.sum
}

// Package topo implements Photon's aggregation topologies and the analytic
// wall-time model of Appendix B.1.
//
// The three aggregation variants of Section 4 — parameter server (PS),
// AllReduce (AR), and Ring-AllReduce (RAR) — have the communication costs of
// Eqs. 2–4; local compute time follows Eq. 1; round wall time follows Eq. 5
// (RoundTime includes the Eq. 7 server aggregation term); PS bandwidth
// degrades past the Appendix B.1 congestion threshold θ (CongestionThr),
// continuously and monotonically in the client count. The package also
// carries the Figure 2 inter-region bandwidth graph and BuildPlan, which
// turns the analytic model into an executable two-tier relay placement over
// a deployment.
package topo

import "fmt"

// Topology identifies an aggregation implementation.
type Topology int

// Aggregation topologies from Section 4.
const (
	// PS routes all updates through a parameter server: O(N·M) at the
	// server, tolerant of dropouts, the only option under strict privacy.
	PS Topology = iota
	// AR is direct all-to-all AllReduce: O(N²·M) total traffic.
	AR
	// RAR is bandwidth-optimal Ring-AllReduce, bottlenecked by the slowest
	// ring link and intolerant of dropouts.
	RAR
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case PS:
		return "PS"
	case AR:
		return "AR"
	default:
		return "RAR"
	}
}

// GbpsToMBps converts link bandwidth from gigabits/s to megabytes/s.
func GbpsToMBps(gbps float64) float64 { return gbps * 1000 / 8 }

// Model is the Appendix B.1 wall-time model. All times are seconds.
type Model struct {
	ModelSizeMB   float64 // S: model size on the wire (MB)
	BandwidthMBps float64 // B: effective bandwidth of the binding link (MB/s)
	Throughput    float64 // ν: local training throughput (batches/s), Eq. 1
	LocalSteps    int     // τ: local steps per round
	// θ: channels before bandwidth scaling (default 100).
	//photon:nolint unused-export -- test seam: TestCongestionRegressionTable1 and TestBuildPlanPrefersTiersUnderCongestion fake a congested root link at 10-client scale
	CongestionThr int
}

// serverTFLOPS is ζ, the server's aggregation capacity in Eq. 7.
const serverTFLOPS = 5

// Validate reports whether the model's parameters are usable.
func (m Model) Validate() error {
	switch {
	case m.ModelSizeMB <= 0:
		return fmt.Errorf("topo: ModelSizeMB must be positive, got %v", m.ModelSizeMB)
	case m.BandwidthMBps <= 0:
		return fmt.Errorf("topo: BandwidthMBps must be positive, got %v", m.BandwidthMBps)
	case m.Throughput <= 0:
		return fmt.Errorf("topo: Throughput must be positive, got %v", m.Throughput)
	case m.LocalSteps <= 0:
		return fmt.Errorf("topo: LocalSteps must be positive, got %v", m.LocalSteps)
	}
	return nil
}

// LocalComputeTime is Eq. 1: T_L = τ/ν. It does not scale with the client
// count because all clients train in parallel on equipollent hardware.
func (m Model) LocalComputeTime() float64 {
	return float64(m.LocalSteps) / m.Throughput
}

// theta returns the effective congestion threshold (default 100 channels).
func (m Model) theta() float64 {
	if m.CongestionThr <= 0 {
		return 100
	}
	return float64(m.CongestionThr)
}

// psSerialTime is the Appendix B.1 congestion-corrected cost of serializing
// k model transfers of s MB over a link of b MB/s: k·s/b while k stays
// within the θ concurrent channels the server NIC sustains at full rate,
// and k²·s/(θ·b) beyond it — each of the k transfers then only gets the
// θ/k-th share of the link. The two branches agree at k = θ, so the cost is
// continuous and monotone non-decreasing in k.
func psSerialTime(k float64, s, b, theta float64) float64 {
	if k <= theta {
		return k * s / b
	}
	return k * k * s / (theta * b)
}

// CommTime returns the per-round communication time of Eqs. 2–4 for K
// clients under the given topology. K ≤ 1 means no communication. The PS
// cost degrades past the congestion threshold θ (CongestionThr): beyond θ
// concurrent channels the server link's effective per-transfer bandwidth
// shrinks proportionally, so the cost grows quadratically in K.
func (m Model) CommTime(t Topology, k int) float64 {
	if k <= 1 {
		return 0
	}
	kf := float64(k)
	s, b := m.ModelSizeMB, m.BandwidthMBps
	switch t {
	case PS:
		// Eq. 2 with the Appendix B.1 congestion correction.
		return psSerialTime(kf, s, b, m.theta())
	case AR:
		// Eq. 3: each worker exchanges with K−1 peers.
		return (kf - 1) * s / b
	default:
		// Eq. 4: bandwidth-optimal ring, 2S(K−1)/(K·B).
		return 2 * s * (kf - 1) / (kf * b)
	}
}

// AggregationTime is Eq. 7: T_agg = K·S/ζ with ζ in TFLOPS, counting one
// reduce FLOP per aggregated byte. As the paper notes, this is negligible
// next to communication.
func (m Model) AggregationTime(k int) float64 {
	return float64(k) * m.ModelSizeMB * 1e6 / (serverTFLOPS * 1e12)
}

// RoundTime is Eq. 5: one round of local compute, aggregation traffic, and
// the Eq. 7 server aggregation term (negligible next to communication, but
// part of the equation).
func (m Model) RoundTime(t Topology, k int) float64 {
	return m.LocalComputeTime() + m.CommTime(t, k) + m.AggregationTime(k)
}

// CommShare returns the fraction of round wall time spent communicating,
// the percentage annotated on top of the Figure 6/9/10 bars.
func (m Model) CommShare(t Topology, k int) float64 {
	rt := m.RoundTime(t, k)
	if rt == 0 {
		return 0
	}
	return m.CommTime(t, k) / rt
}

// Package hw models the hardware side of a Photon deployment: GPU
// descriptors, client silo topologies, the VRAM-driven CalcBatchSize
// heuristic from Algorithm 1, the DeepSpeed-AutoTuner-style training
// strategy selection of Section 4, the paper's measured local throughput
// values (Appendix B.1), and Model-FLOPs-Utilization accounting.
package hw

import (
	"fmt"
	"math"

	"photon/internal/nn"
)

// GPU describes one hardware accelerator.
type GPU struct {
	Name       string
	VRAMGiB    float64
	PeakTFLOPS float64 // dense BF16 peak
}

// H100 is the accelerator of Photon's experiments.
var H100 = GPU{Name: "H100", VRAMGiB: 80, PeakTFLOPS: 989}

// Interconnect classifies the link between GPUs or nodes.
type Interconnect int

// Interconnect kinds in decreasing bandwidth order.
const (
	NVLink Interconnect = iota
	InfiniBand
	RoCE
	PCIe
	Ethernet
)

// String implements fmt.Stringer.
func (ic Interconnect) String() string {
	switch ic {
	case NVLink:
		return "nvlink"
	case InfiniBand:
		return "infiniband"
	case RoCE:
		return "roce"
	case PCIe:
		return "pcie"
	default:
		return "ethernet"
	}
}

// IsRDMA reports whether the interconnect supports RDMA-class bandwidth,
// the HasRDMA check in Algorithm 1 line 16.
func (ic Interconnect) IsRDMA() bool {
	return ic == NVLink || ic == InfiniBand || ic == RoCE
}

// Node is one server with one or more GPUs.
type Node struct {
	GPUs     []GPU
	IntraGPU Interconnect // link between GPUs inside the node
}

// Silo is one federated participant's compute: one or more nodes plus the
// interconnect between them.
type Silo struct {
	Region    string
	Nodes     []Node
	InterNode Interconnect // link between nodes within the silo
	WANGbps   float64      // Internet bandwidth toward the aggregator
}

// NumGPUs returns the silo's total accelerator count.
func (s Silo) NumGPUs() int {
	n := 0
	for _, node := range s.Nodes {
		n += len(node.GPUs)
	}
	return n
}

// TotalVRAMGiB returns the pooled VRAM across all GPUs.
func (s Silo) TotalVRAMGiB() float64 {
	var v float64
	for _, node := range s.Nodes {
		for _, g := range node.GPUs {
			v += g.VRAMGiB
		}
	}
	return v
}

// Memory-model constants for CalcBatchSize. Mixed-precision AdamW training
// holds BF16 weights (2B) and gradients (2B) plus FP32 master weights and
// two Adam moments (12B) per parameter, and the activation footprint per
// sample combines the linear seq·dim·blocks term with the quadratic
// attention-probability term.
const (
	bytesPerParam   = 16.0
	actBytesPerUnit = 32.0 // bytes per (position · channel · block) of activations
	vramUsableFrac  = 0.90 // headroom the allocator keeps free
	giB             = 1 << 30
)

// ActivationBytesPerSample estimates the activation memory one sample of the
// given config needs during a training step (no activation checkpointing,
// matching the paper's 125M setup).
func ActivationBytesPerSample(cfg nn.Config) float64 {
	linear := float64(cfg.SeqLen) * float64(cfg.Dim) * float64(cfg.Blocks) * actBytesPerUnit
	attn := float64(cfg.SeqLen) * float64(cfg.SeqLen) * float64(cfg.Heads) * float64(cfg.Blocks) * 2
	return linear + attn
}

// CalcBatchSize implements Algorithm 1's CalcBatchSize: the largest
// power-of-two per-device batch that fits the model plus activations inside
// the pooled VRAM of nGPUs devices (sharding policy spreads weights). It
// returns 0 when even batch size 1 does not fit.
func CalcBatchSize(cfg nn.Config, gpu GPU, nGPUs int) int {
	if nGPUs < 1 {
		return 0
	}
	usable := gpu.VRAMGiB * giB * vramUsableFrac * float64(nGPUs)
	weights := float64(cfg.ParamCount()) * bytesPerParam
	free := usable - weights
	if free <= 0 {
		return 0
	}
	perSample := ActivationBytesPerSample(cfg)
	b := int(free / perSample)
	if b < 1 {
		return 0
	}
	// Round down to a power of two for allocator-friendly shapes.
	p := 1
	for p*2 <= b {
		p *= 2
	}
	return p
}

// FitsSingleGPU reports whether the model trains with batch ≥ 1 on one GPU.
func FitsSingleGPU(cfg nn.Config, gpu GPU) bool { return CalcBatchSize(cfg, gpu, 1) >= 1 }

// Strategy is the local training strategy an LLM-C selects (Section 4,
// "Optimal Training Strategy Selection").
type Strategy int

// Strategies in the order the heuristic considers them.
const (
	// StrategySingleGPU dedicates one GPU to the whole model.
	StrategySingleGPU Strategy = iota
	// StrategyDDP replicates the model across GPUs with synchronized grads.
	StrategyDDP
	// StrategyFSDP shards parameters across GPUs when one GPU cannot hold
	// the model.
	StrategyFSDP
	// StrategySubFederation nests another level of federated optimization
	// across poorly connected nodes (Algorithm 1 lines 19-25).
	StrategySubFederation
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategySingleGPU:
		return "single-gpu"
	case StrategyDDP:
		return "ddp"
	case StrategyFSDP:
		return "fsdp"
	default:
		return "sub-federation"
	}
}

// SelectStrategy implements the Section 4 heuristic:
//  1. model + viable batch on a single GPU and the silo has one GPU →
//     single-GPU;
//  2. multi-GPU node → DDP when the model fits one GPU, else FSDP;
//  3. multi-node → DDP/FSDP over RDMA-class interconnects, otherwise a
//     sub-federation with further data sub-partitioning.
//
// It returns an error when the model cannot fit even with all silo VRAM.
func SelectStrategy(cfg nn.Config, silo Silo) (Strategy, error) {
	if len(silo.Nodes) == 0 || silo.NumGPUs() == 0 {
		return 0, fmt.Errorf("hw: silo %q has no GPUs", silo.Region)
	}
	gpu := silo.Nodes[0].GPUs[0]
	if CalcBatchSize(cfg, gpu, silo.NumGPUs()) < 1 {
		return 0, fmt.Errorf("hw: model %s does not fit in silo %q (%d GPUs, %.0f GiB)",
			cfg.Name, silo.Region, silo.NumGPUs(), silo.TotalVRAMGiB())
	}
	fitsOne := FitsSingleGPU(cfg, gpu)
	if len(silo.Nodes) == 1 {
		node := silo.Nodes[0]
		if len(node.GPUs) == 1 {
			if fitsOne {
				return StrategySingleGPU, nil
			}
			return 0, fmt.Errorf("hw: model %s does not fit the single GPU in silo %q", cfg.Name, silo.Region)
		}
		if fitsOne {
			return StrategyDDP, nil
		}
		return StrategyFSDP, nil
	}
	if silo.InterNode.IsRDMA() {
		if fitsOne {
			return StrategyDDP, nil
		}
		return StrategyFSDP, nil
	}
	return StrategySubFederation, nil
}

// MFU returns Model-FLOPs-Utilization for a client running throughput ν
// (batches/second) with the given per-device batch size: achieved training
// FLOPs (≈3× forward for fwd+bwd) divided by aggregate peak FLOPs.
func MFU(cfg nn.Config, gpu GPU, nGPUs int, batchesPerSec float64, batchSize int) float64 {
	if nGPUs < 1 || batchesPerSec <= 0 || batchSize < 1 {
		return 0
	}
	achieved := batchesPerSec * float64(batchSize) * float64(cfg.SeqLen) * 3 * cfg.FLOPsPerToken()
	peak := gpu.PeakTFLOPS * 1e12 * float64(nGPUs)
	return achieved / peak
}

// PaperThroughput returns the empirical local throughput ν (batches/second)
// the paper reports in Appendix B.1 for each model size, for the federated
// and centralized configurations. Unknown sizes return 0.
func PaperThroughput(modelName string, federated bool) float64 {
	type pair struct{ fed, cent float64 }
	table := map[string]pair{
		"125M": {2, 2},
		"1.3B": {0.147, 0.839},
		"3B":   {0.144, 0.395},
		"7B":   {0.032, 0.12},
	}
	p, ok := table[modelName]
	if !ok {
		return 0
	}
	if federated {
		return p.fed
	}
	return p.cent
}

// ModelSizeMB returns the BF16 on-the-wire size of the model in megabytes,
// the S term of the Appendix B.1 communication model.
func ModelSizeMB(cfg nn.Config) float64 {
	return float64(cfg.ParamCount()) * 2 / 1e6
}

// Utilization is a crude GPU busy-fraction model: compute-bound work keeps
// the device busy except for data/stream stalls that shrink with batch size.
func Utilization(batchSize int) float64 {
	if batchSize < 1 {
		return 0
	}
	u := 1 - 1/(1+float64(batchSize)/4)
	return math.Min(0.99, 0.6+0.4*u)
}

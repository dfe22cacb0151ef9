package nn

import "fmt"

// Config describes a decoder-only transformer in the MPT style used by the
// paper (Table 4): pre-LN blocks, ALiBi attention, 4x MLP expansion, tied
// input/output embeddings, no projection biases.
type Config struct {
	Name      string  // human-readable size label, e.g. "125M"
	Blocks    int     // number of transformer blocks
	Dim       int     // hidden model dimension d
	Heads     int     // attention heads (must divide Dim)
	ExpRatio  int     // MLP expansion ratio (4 throughout the paper)
	VocabSize int     // tokenizer vocabulary size
	SeqLen    int     // training sequence length l
	Beta1     float64 // AdamW β1 (Table 4)
	Beta2     float64 // AdamW β2 (Table 4)
}

// initStd is the weight-init standard deviation of every model.
const initStd = 0.02

// Validate reports whether the configuration is trainable.
func (c Config) Validate() error {
	switch {
	case c.Blocks <= 0:
		return fmt.Errorf("nn: config %q: Blocks must be positive, got %d", c.Name, c.Blocks)
	case c.Dim <= 0:
		return fmt.Errorf("nn: config %q: Dim must be positive, got %d", c.Name, c.Dim)
	case c.Heads <= 0:
		return fmt.Errorf("nn: config %q: Heads must be positive, got %d", c.Name, c.Heads)
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("nn: config %q: Heads %d must divide Dim %d", c.Name, c.Heads, c.Dim)
	case c.ExpRatio <= 0:
		return fmt.Errorf("nn: config %q: ExpRatio must be positive, got %d", c.Name, c.ExpRatio)
	case c.VocabSize <= 1:
		return fmt.Errorf("nn: config %q: VocabSize must be > 1, got %d", c.Name, c.VocabSize)
	case c.SeqLen <= 0:
		return fmt.Errorf("nn: config %q: SeqLen must be positive, got %d", c.Name, c.SeqLen)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.Dim / c.Heads }

// ParamCount returns the exact number of trainable scalars for the
// configuration: tied token embedding (V·d), per block the fused QKV
// projection (d·3d), output projection (d·d), two LayerNorms (2·2d), and the
// MLP (d·rd + rd·d), plus the final LayerNorm (2d).
func (c Config) ParamCount() int64 {
	d := int64(c.Dim)
	v := int64(c.VocabSize)
	r := int64(c.ExpRatio)
	perBlock := d*3*d + d*d + 4*d + d*r*d + r*d*d
	return v*d + int64(c.Blocks)*perBlock + 2*d
}

// FLOPsPerToken estimates the forward-pass FLOPs per token using the
// standard 2·params approximation plus the attention score term, which the
// hardware model uses for MFU accounting.
func (c Config) FLOPsPerToken() float64 {
	base := 2 * float64(c.ParamCount())
	attn := float64(2 * 2 * float64(c.Blocks) * float64(c.SeqLen) * float64(c.Dim))
	return base + attn
}

// The paper's tokenizer (GPT-NeoX-20B) vocabulary size.
const paperVocab = 50368

// Paper-scale configurations from Table 4. These presets are used for
// parameter-count, FLOPs, VRAM, and wall-time analytics; they are far too
// large to train inside the test suite.
var (
	Config75M = Config{Name: "75M", Blocks: 3, Dim: 896, Heads: 16, ExpRatio: 4,
		VocabSize: paperVocab, SeqLen: 1024, Beta1: 0.9, Beta2: 0.95}
	Config125M = Config{Name: "125M", Blocks: 12, Dim: 768, Heads: 12, ExpRatio: 4,
		VocabSize: paperVocab, SeqLen: 2048, Beta1: 0.9, Beta2: 0.95}
	Config350M = Config{Name: "350M", Blocks: 24, Dim: 1024, Heads: 16, ExpRatio: 4,
		VocabSize: paperVocab, SeqLen: 2048, Beta1: 0.9, Beta2: 0.95}
	Config1B = Config{Name: "1.3B", Blocks: 24, Dim: 2048, Heads: 16, ExpRatio: 4,
		VocabSize: paperVocab, SeqLen: 2048, Beta1: 0.9, Beta2: 0.95}
	Config3B = Config{Name: "3B", Blocks: 32, Dim: 2560, Heads: 20, ExpRatio: 4,
		VocabSize: paperVocab, SeqLen: 2048, Beta1: 0.9, Beta2: 0.95}
	Config7B = Config{Name: "7B", Blocks: 32, Dim: 4096, Heads: 32, ExpRatio: 4,
		VocabSize: paperVocab, SeqLen: 2048, Beta1: 0.9, Beta2: 0.95}
)

// PaperConfigs lists the Table 4 presets in size order.
func PaperConfigs() []Config {
	return []Config{Config75M, Config125M, Config350M, Config1B, Config3B, Config7B}
}

// Laptop-scale proxy configurations actually trained by the experiment
// harness. They keep the architecture family (same code path, same
// hyperparameter structure) at sizes where hundreds of federated rounds run
// in seconds. The three sizes stand in for the paper's 1.3B/3B/7B scaling
// study: monotonically increasing capacity over the same synthetic corpus.
var (
	ConfigTiny = Config{Name: "tiny", Blocks: 2, Dim: 32, Heads: 2, ExpRatio: 4,
		VocabSize: 64, SeqLen: 32, Beta1: 0.9, Beta2: 0.95}
	ConfigTinyS = Config{Name: "tiny-1B-proxy", Blocks: 2, Dim: 32, Heads: 4, ExpRatio: 4,
		VocabSize: 64, SeqLen: 32, Beta1: 0.9, Beta2: 0.95}
	ConfigTinyM = Config{Name: "tiny-3B-proxy", Blocks: 3, Dim: 48, Heads: 4, ExpRatio: 4,
		VocabSize: 64, SeqLen: 32, Beta1: 0.9, Beta2: 0.95}
	ConfigTinyL = Config{Name: "tiny-7B-proxy", Blocks: 4, Dim: 64, Heads: 4, ExpRatio: 4,
		VocabSize: 64, SeqLen: 32, Beta1: 0.9, Beta2: 0.95}
)

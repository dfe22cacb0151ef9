package nn

import (
	"math"
	"math/rand"

	"photon/internal/tensor"
)

// Block is one pre-LayerNorm transformer block:
//
//	x = x + Attn(LN1(x)) ; x = x + MLP(LN2(x))
type Block struct {
	LN1  *LayerNorm
	Attn *Attention
	LN2  *LayerNorm
	FC1  *Linear
	Act  *GELU
	FC2  *Linear
}

// NewBlock constructs one transformer block.
func NewBlock(name string, cfg Config, rng *rand.Rand) *Block {
	std := initStd
	// Residual-branch output projections get the GPT-2 style depth-scaled
	// init to keep the residual stream variance bounded.
	resStd := std / math.Sqrt(float64(2*cfg.Blocks))
	b := &Block{
		LN1:  NewLayerNorm(name+".ln1", cfg.Dim),
		Attn: NewAttention(name+".attn", cfg.Dim, cfg.Heads, std, rng),
		LN2:  NewLayerNorm(name+".ln2", cfg.Dim),
		FC1:  NewLinear(name+".mlp.fc1", cfg.Dim, cfg.ExpRatio*cfg.Dim, std, rng),
		Act:  &GELU{},
		FC2:  NewLinear(name+".mlp.fc2", cfg.ExpRatio*cfg.Dim, cfg.Dim, resStd, rng),
	}
	tensor.RandNormal(rng, b.Attn.Out.W.Data, 0, resStd)
	return b
}

// Params returns the block's parameters in a stable order.
func (b *Block) Params() ParamSet {
	ps := b.LN1.Params()
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FC1.Params()...)
	ps = append(ps, b.FC2.Params()...)
	return ps
}

// Forward runs the block over x ([B·T, D]).
//
//photon:hotpath
func (b *Block) Forward(ws *Workspace, x *tensor.Matrix, batch, seq int) *tensor.Matrix {
	h := b.Attn.Forward(ws, b.LN1.Forward(ws, x), batch, seq)
	tensor.Add(h.Data, x.Data) // residual 1; h = x + attn
	m := b.FC2.Forward(ws, b.Act.Forward(ws, b.FC1.Forward(ws, b.LN2.Forward(ws, h))))
	tensor.Add(m.Data, h.Data) // residual 2
	return m
}

// Backward propagates dY through the block and returns dX.
//
//photon:hotpath
func (b *Block) Backward(ws *Workspace, dy *tensor.Matrix) *tensor.Matrix {
	// Residual 2: gradient flows both into the MLP branch and straight through.
	dh := b.LN2.Backward(ws, b.FC1.Backward(ws, b.Act.Backward(b.FC2.Backward(ws, dy))))
	tensor.Add(dh.Data, dy.Data)
	// Residual 1.
	dx := b.LN1.Backward(ws, b.Attn.Backward(ws, dh))
	tensor.Add(dx.Data, dh.Data)
	return dx
}

// Model is the MPT-style decoder-only language model: tied token embedding,
// N pre-LN blocks with ALiBi attention, final LayerNorm, and a tied output
// projection producing next-token logits.
type Model struct {
	Cfg    Config
	Embed  *Embedding
	Blocks []*Block
	LNF    *LayerNorm

	params ParamSet

	// Reusable training-step scratch. ws is the activation arena (reset at
	// the top of every Loss/ForwardBackward); the remaining fields are
	// cap-grow buffers for the loss kernel and token flattening.
	ws       *Workspace
	embMat   tensor.Matrix // persistent header over Embed.W.Data (tied head)
	dEmbMat  tensor.Matrix // persistent header over Embed.W.Grad
	flat     []int         // flattened batch token ids
	ceTgt    []int         // flattened targets
	ceNLL    []float64
	ceLogits *tensor.Matrix
	ceDlog   *tensor.Matrix
	ceInv    float32
	ceFn     func(lo, hi int) // persistent closure for the parallel loss bands

	// dec is the model's own KV-cached decoder (see kvcache.go), behind
	// Decode/DecodeLogits. Its arena is separate from ws so the shape churn
	// of growing caches never disturbs training's exact-size reuse.
	dec *Decoder

	// Generation scratch: a recycled single-sequence cache plus the fixed
	// one-element slices the per-token decode loop feeds to Decode.
	genState   *DecodeState
	genStates  [1]*DecodeState
	genToks    [1][]int
	genTok     [1]int
	genRowIdx  [1]int
	genSampler Sampler
}

// NewModel builds and initializes a model from cfg using rng. It panics on
// an invalid configuration (programmer error, validated in tests).
func NewModel(cfg Config, rng *rand.Rand) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	std := initStd
	m := &Model{
		Cfg:   cfg,
		Embed: NewEmbedding("embed", cfg.VocabSize, cfg.Dim, std, rng),
		LNF:   NewLayerNorm("lnf", cfg.Dim),
	}
	for i := 0; i < cfg.Blocks; i++ {
		m.Blocks = append(m.Blocks, NewBlock(blockName(i), cfg, rng))
	}
	m.params = m.Embed.Params()
	for _, b := range m.Blocks {
		m.params = append(m.params, b.Params()...)
	}
	m.params = append(m.params, m.LNF.Params()...)
	m.ws = NewWorkspace()
	m.embMat = tensor.Matrix{Rows: cfg.VocabSize, Cols: cfg.Dim, Data: m.Embed.W.Data}
	m.dEmbMat = tensor.Matrix{Rows: cfg.VocabSize, Cols: cfg.Dim, Data: m.Embed.W.Grad}
	m.ceFn = m.ceBand
	return m
}

func blockName(i int) string {
	return "block" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// Params returns all trainable parameters in deterministic order.
func (m *Model) Params() ParamSet { return m.params }

// NumParams returns the total trainable parameter count.
func (m *Model) NumParams() int { return m.params.NumElements() }

// Workspace returns the model's scratch arena (created lazily), so callers
// embedding a Model in their own step loop can reuse it for their scratch.
//
//photon:allocok
func (m *Model) Workspace() *Workspace {
	if m.ws == nil {
		m.ws = NewWorkspace()
	}
	return m.ws
}

// Batch is one training micro-batch of token sequences. Targets[i][t] is the
// next-token label for Inputs[i][t]; a negative target is ignored (padding).
type Batch struct {
	Inputs  [][]int
	Targets [][]int
}

// Tokens returns the number of (non-ignored) target tokens.
func (b Batch) Tokens() int {
	n := 0
	for _, row := range b.Targets {
		for _, t := range row {
			if t >= 0 {
				n++
			}
		}
	}
	return n
}

// forward runs the model to final hidden states [B·T, D].
//
//photon:hotpath
func (m *Model) forward(inputs [][]int) (*tensor.Matrix, int, int) {
	batch := len(inputs)
	seq := len(inputs[0])
	ws := m.Workspace()
	m.flat = growInt(m.flat, batch*seq)
	for i, row := range inputs {
		if len(row) != seq {
			panic("nn: ragged batch")
		}
		copy(m.flat[i*seq:], row)
	}
	x := m.Embed.Forward(ws, m.flat)
	for _, b := range m.Blocks {
		x = b.Forward(ws, x, batch, seq)
	}
	return m.LNF.Forward(ws, x), batch, seq
}

// Logits computes next-token logits [B·T, V] for the batch inputs. The
// caller owns the returned matrix.
//
//photon:allocok
func (m *Model) Logits(inputs [][]int) *tensor.Matrix {
	return m.logitsScratch(inputs).Clone()
}

// logitsScratch is the allocation-free logits path: the returned matrix
// lives in the model's workspace and is valid until the next
// Loss/Logits/ForwardBackward call on this model.
//
//photon:hotpath
func (m *Model) logitsScratch(inputs [][]int) *tensor.Matrix {
	ws := m.Workspace()
	ws.Reset()
	h, _, _ := m.forward(inputs)
	logits := ws.Take(h.Rows, m.Cfg.VocabSize)
	tensor.MatMulTransB(logits, h, &m.embMat) // logits = H·Embᵀ (tied head)
	return logits
}

// Loss computes the mean cross-entropy (nats/token) of the batch without
// touching gradients.
//
//photon:hotpath
func (m *Model) Loss(b Batch) float64 {
	logits := m.logitsScratch(b.Inputs)
	return m.crossEntropy(logits, b.Targets, nil)
}

// ForwardBackward computes the batch loss and accumulates parameter
// gradients (it does not zero them first, enabling gradient accumulation).
//
//photon:hotpath
func (m *Model) ForwardBackward(b Batch) float64 {
	ws := m.Workspace()
	ws.Reset()
	h, _, _ := m.forward(b.Inputs)
	logits := ws.Take(h.Rows, m.Cfg.VocabSize)
	tensor.MatMulTransB(logits, h, &m.embMat)

	dlogits := ws.Take(logits.Rows, logits.Cols)
	loss := m.crossEntropy(logits, b.Targets, dlogits)

	// Tied head backward: dH = dLogits·Emb ; dEmb += dLogitsᵀ·H.
	dh := ws.Take(h.Rows, m.Cfg.Dim)
	tensor.MatMul(dh, dlogits, &m.embMat)
	tensor.MatMulTransAAccum(&m.dEmbMat, dlogits, h)

	dx := m.LNF.Backward(ws, dh)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dx = m.Blocks[i].Backward(ws, dx)
	}
	m.Embed.Backward(dx)
	return loss
}

// ceBand computes per-row NLL (and, when training, the dLogits rows) for
// logit rows [lo, hi). It is the band body dispatched across the tensor
// worker pool; all state rides in the model's ce* fields so the closure is
// allocated once.
//
//photon:hotpath
func (m *Model) ceBand(lo, hi int) {
	logits, dlogits := m.ceLogits, m.ceDlog
	inv := m.ceInv
	for r := lo; r < hi; r++ {
		tgt := m.ceTgt[r]
		if tgt < 0 {
			m.ceNLL[r] = 0
			if dlogits != nil {
				drow := dlogits.Row(r)
				for j := range drow {
					drow[j] = 0
				}
			}
			continue
		}
		lrow := logits.Row(r)
		if dlogits == nil {
			lse := tensor.LogSumExpRow(lrow)
			m.ceNLL[r] = lse - float64(lrow[tgt])
			continue
		}
		// Training path: one fused exp pass produces both the softmax
		// gradient row and the log-sum-exp for the loss.
		drow := dlogits.Row(r)
		maxV, sum := tensor.ExpRow(drow, lrow)
		m.ceNLL[r] = float64(maxV) + math.Log(sum) - float64(lrow[tgt])
		tensor.Scale(inv/float32(sum), drow)
		drow[tgt] -= inv
	}
}

// crossEntropy returns mean NLL over non-negative targets; if dlogits is
// non-nil it is filled with the gradient (softmax − onehot)/count. Rows are
// processed in parallel bands on the worker pool.
//
//photon:hotpath
func (m *Model) crossEntropy(logits *tensor.Matrix, targets [][]int, dlogits *tensor.Matrix) float64 {
	rows := logits.Rows
	m.ceTgt = growInt(m.ceTgt, rows)
	m.ceNLL = growF64(m.ceNLL, rows)
	// Default every row to padding first: a Targets that covers fewer rows
	// than the logits (or none at all) must contribute zero loss and zero
	// gradient for the uncovered rows, not whatever ids a previous batch
	// left in the recycled buffer.
	for i := range m.ceTgt {
		m.ceTgt[i] = -1
	}
	count := 0
	if len(targets) > 0 {
		seq := len(targets[0])
		for bi, row := range targets {
			for t, tgt := range row {
				m.ceTgt[bi*seq+t] = tgt
				if tgt >= 0 {
					count++
				}
			}
		}
	}
	if count == 0 {
		if dlogits != nil {
			dlogits.Zero()
		}
		return 0
	}
	m.ceLogits, m.ceDlog = logits, dlogits
	m.ceInv = float32(1 / float64(count))
	// ~32 flop-equivalents per logit column (exp + log dominate).
	tensor.Parallel(rows, logits.Cols*32, m.ceFn)
	m.ceLogits, m.ceDlog = nil, nil
	var loss float64
	for _, v := range m.ceNLL {
		loss += v
	}
	return loss / float64(count)
}

// Perplexity converts a mean NLL (nats/token) to perplexity.
//
//photon:hotpath
func Perplexity(meanNLL float64) float64 { return math.Exp(meanNLL) }

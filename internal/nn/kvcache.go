package nn

import (
	"fmt"
	"math"

	"photon/internal/tensor"
)

// DecodeState is one sequence's per-layer KV cache for incremental decoding.
// Each layer stores keys and values as Heads contiguous [maxSeq, headDim]
// panels so the decode kernel streams unit-stride rows; Decode appends one
// panel row per new token per layer and attends over the cached prefix,
// turning the O(T²)-forwards generation loop into O(T) incremental steps.
//
// A DecodeState belongs to a single Model (the cache layout is derived from
// its configuration) and, like a Decoder, is not safe for concurrent use.
// The buffers are allocated once at construction; steady-state decoding
// never grows them.
type DecodeState struct {
	k, v    [][]float32 // per layer: Heads panels of maxSeq·headDim
	n       int         // cached positions
	maxSeq  int
	headDim int
}

// NewDecodeState allocates a KV cache able to hold maxSeq positions per
// layer for decoding with this model.
//
//photon:allocok
func (m *Model) NewDecodeState(maxSeq int) *DecodeState {
	if maxSeq <= 0 {
		panic(fmt.Sprintf("nn: NewDecodeState: maxSeq must be positive, got %d", maxSeq))
	}
	s := &DecodeState{
		k:       make([][]float32, len(m.Blocks)),
		v:       make([][]float32, len(m.Blocks)),
		maxSeq:  maxSeq,
		headDim: m.Cfg.HeadDim(),
	}
	per := m.Cfg.Heads * maxSeq * s.headDim
	for i := range s.k {
		s.k[i] = make([]float32, per)
		s.v[i] = make([]float32, per)
	}
	return s
}

// Len returns the number of cached positions.
//
//photon:hotpath
func (s *DecodeState) Len() int { return s.n }

// Cap returns the cache capacity in positions.
//
//photon:hotpath
func (s *DecodeState) Cap() int { return s.maxSeq }

// Reset empties the cache so the state can be reused for a new sequence
// without reallocating — continuous-batching servers recycle retired slots
// this way.
//
//photon:hotpath
func (s *DecodeState) Reset() { s.n = 0 }

// Truncate drops cached positions beyond n (n must not exceed Len). The
// retained prefix stays valid: decoding continues from position n.
//
//photon:hotpath
func (s *DecodeState) Truncate(n int) {
	if n < 0 || n > s.n {
		panic(fmt.Sprintf("nn: Truncate(%d) outside cached length %d", n, s.n))
	}
	s.n = n
}

// Decoder is one goroutine's KV-cached decode scratch over a model's
// weights: a workspace under the size-class retention policy (decode scratch
// shapes grow with the cache length, and power-of-two buckets keep the
// steady state allocation-free where exact-size buckets would miss on every
// step) plus the ragged-batch bookkeeping. Decoding only reads the model, so
// decoders over one model may run concurrently on disjoint DecodeStates —
// the serve engine runs one per core. A single Decoder, like a DecodeState,
// is not safe for concurrent use.
type Decoder struct {
	m      *Model
	ws     *Workspace
	flat   []int               // flattened new tokens across the decode batch
	lens   []int               // per-sequence cached length before the step
	counts []int               // per-sequence new-token count
	items  []tensor.DecodeItem // ragged (sequence × head) attention work items
}

// NewDecoder returns a decoder over m's weights with its own scratch.
//
//photon:allocok
func (m *Model) NewDecoder() *Decoder {
	ws := NewWorkspace()
	ws.sizeClasses = true
	return &Decoder{m: m, ws: ws}
}

// decoder returns the model's own decoder, behind Decode and DecodeLogits,
// created lazily.
//
//photon:allocok
func (m *Model) decoder() *Decoder {
	if m.dec == nil {
		m.dec = m.NewDecoder()
	}
	return m.dec
}

// Decode runs one incremental forward over a batch of sequences: tokens[i]
// are the new tokens for states[i] — one token for a sequence in steady-state
// decode, a whole prompt (or prompt chunk) for a sequence being prefilled.
// Mixed batches are the point: a continuous-batching server prefills newly
// admitted sequences in the same forward that decodes the running ones.
//
// Each layer appends tokens[i]'s K/V rows to states[i] and attends over the
// cached prefix plus the new rows (causally within the new rows). On return
// every state's Len has advanced by len(tokens[i]).
//
// The result holds the final hidden states for all new rows — the rows of
// sequence i start at offset Σ_{j<i} len(tokens[j]) — and lives in the
// model's decode workspace: it is valid until the next Decode call. Use
// DecodeLogits to turn selected rows into next-token logits. Decode is
// Decoder.Decode on the model's own decoder.
//
//photon:hotpath
func (m *Model) Decode(states []*DecodeState, tokens [][]int) *tensor.Matrix {
	return m.decoder().Decode(states, tokens)
}

// DecodeLogits computes next-token logits for the selected rows of a hidden
// matrix returned by Decode. Generation needs only each sequence's last row;
// continuation scoring needs every continuation row — gathering first keeps
// the [rows, Vocab] product as small as the caller's actual need. The result
// lives in the decode workspace and is valid until the next Decode call.
//
//photon:hotpath
func (m *Model) DecodeLogits(h *tensor.Matrix, rows []int) *tensor.Matrix {
	return m.decoder().DecodeLogits(h, rows)
}

// Decode is Model.Decode on this decoder's scratch; its result is valid until
// the decoder's next Decode.
//
//photon:hotpath
func (d *Decoder) Decode(states []*DecodeState, tokens [][]int) *tensor.Matrix {
	if len(states) == 0 || len(states) != len(tokens) {
		panic(fmt.Sprintf("nn: Decode: %d states, %d token slices", len(states), len(tokens)))
	}
	total := 0
	for i, tk := range tokens {
		if len(tk) == 0 {
			panic("nn: Decode: empty token slice")
		}
		if states[i].n+len(tk) > states[i].maxSeq {
			panic(fmt.Sprintf("nn: Decode: sequence %d overflows cache (%d+%d > %d)",
				i, states[i].n, len(tk), states[i].maxSeq))
		}
		total += len(tk)
	}
	m, ws := d.m, d.ws
	ws.Reset()

	d.flat = growInt(d.flat, total)
	d.lens = growInt(d.lens, len(states))
	d.counts = growInt(d.counts, len(states))
	off := 0
	for i, tk := range tokens {
		copy(d.flat[off:], tk)
		off += len(tk)
		d.lens[i] = states[i].n
		d.counts[i] = len(tk)
	}

	x := m.Embed.forward(ws, d.flat)
	for li, b := range m.Blocks {
		x = d.block(b, x, li, states)
	}
	h := m.LNF.forward(ws, x, nil, nil)
	for i, tk := range tokens {
		states[i].n += len(tk)
	}
	return h
}

// DecodeLogits is Model.DecodeLogits on this decoder's scratch.
//
//photon:hotpath
func (d *Decoder) DecodeLogits(h *tensor.Matrix, rows []int) *tensor.Matrix {
	m := d.m
	g := d.ws.Take(len(rows), m.Cfg.Dim)
	for i, r := range rows {
		copy(g.Row(i), h.Row(r))
	}
	logits := d.ws.Take(len(rows), m.Cfg.VocabSize)
	tensor.MatMulTransB(logits, g, &m.embMat)
	return logits
}

// block is Block.Forward for the incremental path: same residual structure,
// attention replaced by the KV-cached variant, no backward caches written.
//
//photon:hotpath
func (d *Decoder) block(b *Block, x *tensor.Matrix, layer int, states []*DecodeState) *tensor.Matrix {
	ws := d.ws
	h := d.attend(b.Attn, b.LN1.forward(ws, x, nil, nil), layer, states)
	tensor.Add(h.Data, x.Data) // residual 1
	mo := b.FC2.forward(ws, gelu(ws, b.FC1.forward(ws, b.LN2.forward(ws, h, nil, nil))))
	tensor.Add(mo.Data, h.Data) // residual 2
	return mo
}

// attend is the KV-cached attention step for a mixed prefill/decode batch.
// x holds the ΣTi new rows of all sequences concatenated; d.lens[i] is
// states[i]'s cached length before this call and d.counts[i] its new-row
// count. Each head's new K/V rows are written straight into the sequence's
// layer cache, and attention runs as one ragged AttendDecode dispatch over
// (sequence × head) items — steady-state decode touches each cached row once
// instead of recomputing the whole prefix.
//
//photon:hotpath
func (d *Decoder) attend(a *Attention, x *tensor.Matrix, layer int, states []*DecodeState) *tensor.Matrix {
	ws, lens, counts := d.ws, d.lens, d.counts
	hd := a.HeadDim
	scale := float32(1 / math.Sqrt(float64(hd)))
	total := x.Rows

	qkv := a.QKV.forward(ws, x) // [ΣTi, 3D]

	// Per-(sequence × head) query and context panels. Sequence i's block
	// starts at row rowOff·Heads and holds Heads consecutive panels of
	// counts[i] rows each.
	qP := ws.Take(total*a.Heads, hd)
	ctxP := ws.Take(total*a.Heads, hd)
	probTotal := 0
	for i := range states {
		probTotal += counts[i] * (lens[i] + counts[i]) * a.Heads
	}
	probs := ws.Take(probTotal, 1)

	d.items = growDecodeItems(d.items, len(states)*a.Heads)

	rowOff, probOff, it := 0, 0, 0
	for i, s := range states {
		qn, kn := counts[i], lens[i]+counts[i]
		stride := s.maxSeq * hd
		for h := 0; h < a.Heads; h++ {
			base := rowOff*a.Heads + h*qn
			qo, ko, vo := h*hd, a.Dim+h*hd, 2*a.Dim+h*hd
			kc := s.k[layer][h*stride : h*stride+kn*hd]
			vc := s.v[layer][h*stride : h*stride+kn*hd]
			for t := 0; t < qn; t++ {
				src := qkv.Row(rowOff + t)
				copy(qP.Row(base+t), src[qo:qo+hd])
				copy(kc[(lens[i]+t)*hd:(lens[i]+t+1)*hd], src[ko:ko+hd])
				copy(vc[(lens[i]+t)*hd:(lens[i]+t+1)*hd], src[vo:vo+hd])
			}
			d.items[it] = tensor.DecodeItem{
				Q:     qP.Data[base*hd : (base+qn)*hd],
				K:     kc,
				V:     vc,
				Probs: probs.Data[probOff : probOff+qn*kn],
				Ctx:   ctxP.Data[base*hd : (base+qn)*hd],
				QRows: qn,
				KRows: kn,
				Slope: a.sl[h],
			}
			probOff += qn * kn
			it++
		}
		rowOff += qn
	}
	tensor.AttendDecode(d.items, scale)

	ctx := ws.Take(total, a.Dim) // concatenated head outputs
	rowOff = 0
	for i := range states {
		qn := counts[i]
		for h := 0; h < a.Heads; h++ {
			base := rowOff*a.Heads + h*qn
			off := h * hd
			for t := 0; t < qn; t++ {
				copy(ctx.Row(rowOff + t)[off:off+hd], ctxP.Row(base+t))
			}
		}
		rowOff += qn
	}
	return a.Out.forward(ws, ctx)
}

// growDecodeItems is the cap-grow pattern for the ragged decode work-item
// scratch: amortized reallocation off the hot path.
//
//photon:allocok
func growDecodeItems(buf []tensor.DecodeItem, n int) []tensor.DecodeItem {
	if cap(buf) < n {
		return make([]tensor.DecodeItem, n, n+n/2)
	}
	return buf[:n]
}

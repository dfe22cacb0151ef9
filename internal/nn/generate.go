package nn

import "math/rand"

// Generate autoregressively samples n tokens continuing prompt. Temperature
// 0 is greedy decoding; higher temperatures flatten the distribution. It is
// GenerateOpts with only the temperature set.
func (m *Model) Generate(rng *rand.Rand, prompt []int, n int, temperature float64) []int {
	return m.GenerateOpts(rng, prompt, n, SampleOpts{Temperature: temperature})
}

// GenerateOpts autoregressively samples n tokens continuing prompt under the
// given sampling options. The prompt is truncated to the model's configured
// sequence length, prefilled once through the KV-cached decode path, and each
// subsequent token costs a single-row incremental step — O(T) total forwards
// instead of the O(T²) recompute of a cache-less loop. Generated context may
// extend past SeqLen: ALiBi attention extrapolates to longer sequences than
// trained on, which is the point of the positional scheme.
func (m *Model) GenerateOpts(rng *rand.Rand, prompt []int, n int, o SampleOpts) []int {
	out := make([]int, 0, n)
	if n <= 0 {
		return out
	}
	ctx := prompt
	if len(ctx) > m.Cfg.SeqLen {
		ctx = ctx[len(ctx)-m.Cfg.SeqLen:]
	}
	if len(ctx) == 0 {
		// Seed an empty prompt with token 0; it is not part of the output.
		m.genTok[0] = 0
		ctx = m.genTok[:]
	}

	need := len(ctx) + n
	if m.genState == nil || m.genState.Cap() < need {
		m.genState = m.NewDecodeState(need)
	}
	st := m.genState
	st.Reset()
	m.genStates[0] = st

	m.genToks[0] = ctx
	h := m.Decode(m.genStates[:], m.genToks[:])
	row := m.DecodeLogits(h, m.genRow(h.Rows-1)).Row(0)
	for {
		next := m.genSampler.Sample(rng, row, o)
		out = append(out, next)
		if len(out) == n {
			return out
		}
		m.genTok[0] = next
		m.genToks[0] = m.genTok[:]
		h = m.Decode(m.genStates[:], m.genToks[:])
		row = m.DecodeLogits(h, m.genRow(0)).Row(0)
	}
}

// genRow returns the single-element row-index slice for DecodeLogits without
// allocating.
func (m *Model) genRow(r int) []int {
	m.genRowIdx[0] = r
	return m.genRowIdx[:]
}

package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// decodeCfg is a multi-layer configuration so the equivalence tests cover
// cross-layer cache propagation, not just a single attention.
func decodeCfg() Config {
	return Config{
		VocabSize: 61,
		Dim:       24,
		Heads:     3,
		Blocks:    3,
		ExpRatio:  2,
		SeqLen:    16,
	}
}

// maxAbsDiff returns the largest elementwise |a-b|.
func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

// TestDecodeMatchesFullRecompute is the tentpole equivalence: KV-cached
// token-by-token decoding must produce (within float tolerance — the decode
// and training kernels sum in different orders) the same next-token logits as
// a full recompute of the growing prefix through Logits at every step.
func TestDecodeMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := NewModel(decodeCfg(), rng)

	seq := make([]int, 12)
	for i := range seq {
		seq[i] = rng.Intn(m.Cfg.VocabSize)
	}

	st := m.NewDecodeState(len(seq))
	for n := 1; n <= len(seq); n++ {
		// Cached path: feed one new token, read the last row's logits.
		h := m.Decode([]*DecodeState{st}, [][]int{seq[n-1 : n]})
		got := m.DecodeLogits(h, []int{h.Rows - 1})

		// Reference: full recompute of the whole prefix.
		want := m.Logits([][]int{seq[:n]})
		wrow := want.Row(n - 1)

		if d := maxAbsDiff(got.Row(0), wrow); d > 1e-4 {
			t.Fatalf("step %d: cached logits diverge from recompute by %g", n, d)
		}
	}
	if st.Len() != len(seq) {
		t.Fatalf("cache length %d after %d tokens", st.Len(), len(seq))
	}
}

// TestDecodePrefillMatchesFullForward checks that a one-shot multi-token
// prefill produces the same hidden rows as the training forward, for every
// position at once.
func TestDecodePrefillMatchesFullForward(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewModel(decodeCfg(), rng)

	seq := make([]int, 10)
	for i := range seq {
		seq[i] = rng.Intn(m.Cfg.VocabSize)
	}
	st := m.NewDecodeState(len(seq))
	h := m.Decode([]*DecodeState{st}, [][]int{seq})
	rows := make([]int, len(seq))
	for i := range rows {
		rows[i] = i
	}
	got := m.DecodeLogits(h, rows)
	want := m.Logits([][]int{seq})
	if d := maxAbsDiff(got.Data, want.Data); d > 1e-4 {
		t.Fatalf("prefill logits diverge from full forward by %g", d)
	}
}

// TestDecodeMixedBatch runs a continuous-batching-shaped step — one sequence
// prefilling its whole prompt while another decodes a single token over an
// existing cache — and checks both against independent single-sequence
// recomputes. This pins the row-offset bookkeeping across ragged batches.
func TestDecodeMixedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := NewModel(decodeCfg(), rng)
	V := m.Cfg.VocabSize

	seqA := []int{3, 17, 42, 8, 55, 21, 9}
	seqB := []int{50, 2, 33, 14}

	// Warm sequence A's cache over all but its last token.
	stA := m.NewDecodeState(16)
	m.Decode([]*DecodeState{stA}, [][]int{seqA[:len(seqA)-1]})
	stB := m.NewDecodeState(16)

	// Mixed step: A decodes one token, B prefills its whole prompt.
	h := m.Decode([]*DecodeState{stA, stB}, [][]int{seqA[len(seqA)-1:], seqB})
	logits := m.DecodeLogits(h, []int{0, h.Rows - 1})

	wantA := m.Logits([][]int{seqA})
	wantB := m.Logits([][]int{seqB})
	if d := maxAbsDiff(logits.Row(0), wantA.Row(len(seqA)-1)); d > 1e-4 {
		t.Fatalf("decoding sequence diverges by %g in mixed batch", d)
	}
	if d := maxAbsDiff(logits.Row(1), wantB.Row(len(seqB)-1)); d > 1e-4 {
		t.Fatalf("prefilling sequence diverges by %g in mixed batch", d)
	}
	if stA.Len() != len(seqA) || stB.Len() != len(seqB) {
		t.Fatalf("cache lengths %d/%d, want %d/%d", stA.Len(), stB.Len(), len(seqA), len(seqB))
	}
	_ = V
}

// TestDecodeStateReuse pins Reset/Truncate: a reset state re-decodes a new
// sequence from scratch, and a truncated state continues identically to a
// fresh cache fed the retained prefix.
func TestDecodeStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := NewModel(decodeCfg(), rng)

	seq := []int{5, 9, 13, 2, 44, 7}
	st := m.NewDecodeState(16)
	m.Decode([]*DecodeState{st}, [][]int{{11, 23, 31}})
	st.Reset()
	h := m.Decode([]*DecodeState{st}, [][]int{seq})
	got := m.DecodeLogits(h, []int{h.Rows - 1}).Clone()

	fresh := m.NewDecodeState(16)
	h2 := m.Decode([]*DecodeState{fresh}, [][]int{seq})
	// Clone: the workspace-resident logits are invalidated by the next Decode.
	want := m.DecodeLogits(h2, []int{h2.Rows - 1}).Clone()
	if d := maxAbsDiff(got.Data, want.Data); d != 0 {
		t.Fatalf("reset state diverges from fresh state by %g", d)
	}

	// Truncate back to a prefix and re-decode the suffix. Row counts differ
	// from the fresh path (3 vs 6), so the tiled matmul micro-kernels
	// sum in a different order — tight tolerance, not bitwise equality.
	st.Truncate(3)
	h3 := m.Decode([]*DecodeState{st}, [][]int{seq[3:]})
	got3 := m.DecodeLogits(h3, []int{h3.Rows - 1})
	if d := maxAbsDiff(got3.Data, want.Data); d > 1e-6 {
		t.Fatalf("truncated state diverges by %g", d)
	}
}

// TestDecodeOverflowPanics pins the cache-capacity check.
func TestDecodeOverflowPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m := NewModel(decodeCfg(), rng)
	st := m.NewDecodeState(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cache overflow")
		}
	}()
	m.Decode([]*DecodeState{st}, [][]int{{1, 2, 3, 4, 5}})
}

// TestDecodeStepZeroAlloc is the acceptance criterion for the workspace
// size-class retention policy: after warming the power-of-two buckets by
// decoding a sequence to the cache capacity once, a steady-state
// single-sequence decode step performs zero heap allocations even though its
// scratch shapes keep growing.
func TestDecodeStepZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(61))
	m := NewModel(decodeCfg(), rng)
	const maxSeq = 64

	st := m.NewDecodeState(maxSeq)
	tok := []int{1}
	states := []*DecodeState{st}
	tokens := [][]int{tok}

	// Warm every size-class bucket: decode to capacity once.
	for i := 0; i < maxSeq; i++ {
		tok[0] = i % m.Cfg.VocabSize
		h := m.Decode(states, tokens)
		m.DecodeLogits(h, []int{0})
	}
	st.Reset()
	pos := 0
	step := func() {
		tok[0] = pos % m.Cfg.VocabSize
		h := m.Decode(states, tokens)
		m.DecodeLogits(h, []int{0})
		pos++
		if pos == maxSeq {
			st.Reset()
			pos = 0
		}
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(2*maxSeq, step); allocs != 0 {
		t.Fatalf("steady-state decode step allocates %.1f times", allocs)
	}
}

// TestDecodeOneAtATimeBitwiseEqualsPrefill is the strong form of the
// tolerance tests above: on either kernel path, a prompt fed
// to a DecodeState in one call and the same tokens fed one Decode call at a
// time give bitwise-equal logits at every position — 23 rows in one matmul
// tile differently from 23 single rows, and must not matter.
func TestDecodeOneAtATimeBitwiseEqualsPrefill(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := Config{VocabSize: 256, Dim: 64, Heads: 4, Blocks: 4, ExpRatio: 4, SeqLen: 32}
	m := NewModel(cfg, rng)
	seq := make([]int, 23)
	rows := make([]int, len(seq))
	for i := range seq {
		seq[i], rows[i] = rng.Intn(cfg.VocabSize), i
	}

	at := m.NewDecodeState(len(seq))
	want := m.DecodeLogits(m.Decode([]*DecodeState{at}, [][]int{seq}), rows).Clone()

	st := m.NewDecodeState(len(seq))
	differ := 0
	for i := range seq {
		got := m.DecodeLogits(m.Decode([]*DecodeState{st}, [][]int{seq[i : i+1]}), []int{0})
		for j, v := range got.Row(0) {
			if math.Float32bits(v) != math.Float32bits(want.Row(i)[j]) {
				differ++
			}
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d logits differ bitwise between prefill and token-at-a-time decode", differ, len(want.Data))
	}
}

// TestDecodersShareModelConcurrently is the contract the serve engine's
// per-core shards stand on: two Decoders over one model, each decoding its
// own half of a batch on its own goroutine at the same time, give what one
// decoder gives over the whole batch, bit for bit. Under -race it also shows that decoding
// writes nothing shared: no layer cache, no model scratch.
func TestDecodersShareModelConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := Config{VocabSize: 256, Dim: 64, Heads: 4, Blocks: 4, ExpRatio: 4, SeqLen: 32}
	m := NewModel(cfg, rng)
	const seqs, steps, maxSeq = 6, 12, 64
	prompts := make([][]int, seqs)
	next := make([][]int, seqs) // the token fed to sequence i at each step
	for i := range prompts {
		prompts[i] = make([]int, 3+rng.Intn(12))
		for j := range prompts[i] {
			prompts[i][j] = rng.Intn(cfg.VocabSize)
		}
		next[i] = make([]int, steps)
		for j := range next[i] {
			next[i][j] = rng.Intn(cfg.VocabSize)
		}
	}

	// run decodes sequences [lo, hi) on d: the prompts in one mixed prefill,
	// then one token a step, and returns each step's last-row logits.
	run := func(d *Decoder, lo, hi int) [][][]float32 {
		states := make([]*DecodeState, hi-lo)
		toks := make([][]int, hi-lo)
		rows := make([]int, hi-lo)
		for i := range states {
			states[i] = m.NewDecodeState(maxSeq)
			toks[i] = prompts[lo+i]
		}
		out := make([][][]float32, hi-lo)
		for step := 0; step <= steps; step++ {
			off := 0
			for i := range toks {
				off += len(toks[i])
				rows[i] = off - 1
			}
			logits := d.DecodeLogits(d.Decode(states, toks), rows)
			for i := range states {
				out[i] = append(out[i], append([]float32(nil), logits.Row(i)...))
				if step < steps {
					toks[i] = next[lo+i][step : step+1]
				}
			}
		}
		return out
	}

	want := run(m.NewDecoder(), 0, seqs)
	var halves [2][][][]float32
	var wg sync.WaitGroup
	for h := range halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			halves[h] = run(m.NewDecoder(), h*seqs/2, (h+1)*seqs/2)
		}()
	}
	wg.Wait()
	got := append(halves[0], halves[1]...)

	for i := range want {
		for step := range want[i] {
			for j, v := range got[i][step] {
				if math.Float32bits(v) != math.Float32bits(want[i][step][j]) {
					t.Fatalf("sequence %d step %d: logit %d is %g on a shard decoder, %g over the whole batch", i, step, j, v, want[i][step][j])
				}
			}
		}
	}
}

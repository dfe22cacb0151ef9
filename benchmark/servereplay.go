package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/eval"
	"photon/internal/nn"
	"photon/internal/serve"
)

// Layer replay of a serving workload. The blocking span of a request is
// serve.engine_do: the same request through Engine.Do in this process, at
// the live run's number of requests in flight, so what the live request
// costs beyond it is the wire, the server's connection handling and the
// client (serve.wire_overhead_ms, unattributed_share). The engine cannot be
// opened from outside, so its inside is measured beside it, as background
// spans on a model built from the same seed: prompt processing per token, a
// decode step at 1, 2 and 8 sequences, sampling, and — for the ICL workload
// — retrieval, which the caller pays between requests.
func replayServe(w serveWorkload, e env, in serveInputs, res *result, st *serveStack, run *serveRun, retriever *eval.Retriever) {
	rec := newRecorder()
	requestMs := res.e2e["op_ms"]

	// serve.engine_do at the live concurrency, each request its own trace.
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(e.window() / 2)
	for c := 0; c < w.conns*w.inflight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 3 || time.Now().Before(deadline); n++ {
				i := int(next.Add(1) - 1)
				var req serve.Request
				if w.icl {
					s := run.icl.requests[i%len(run.icl.requests)]
					req = serve.Request{Prompt: s.ctx, Cont: s.cont}
				} else {
					g := in.reqs[i%len(in.reqs)]
					req = serve.Request{Prompt: g.prompt, MaxNew: genMaxNew, Opts: genSample, Seed: g.seed}
				}
				root := rec.begin("replay.request", 0, i, -1)
				rec.do("serve.engine_do", root, i, -1, func() { st.eng.Do(req) })
				rec.end(root)
			}
		}()
	}
	wg.Wait()

	// Inside the engine, measured beside it.
	ref := in.newModel()
	background := func(name string, trace int, fn func()) {
		id := rec.beginBackground(name, trace, -1)
		fn()
		rec.end(id)
	}
	var prefillPerToken []float64
	rng := rand.New(rand.NewSource(subSeed(e.seed, "replay-sampler")))
	var sampler nn.Sampler
	deadline = time.Now().Add(e.window() / 2)
	for i := 0; i < 8 || time.Now().Before(deadline); i++ {
		// Prompt processing: one sequence, all of its tokens in one forward.
		var seq []int
		var rows []int
		if w.icl {
			s := run.icl.requests[i%len(run.icl.requests)]
			seq = append(append([]int(nil), s.ctx...), s.cont...)
			for r := len(s.ctx) - 1; r < len(seq)-1; r++ {
				rows = append(rows, r)
			}
		} else {
			seq = in.reqs[i%len(in.reqs)].prompt
			rows = []int{len(seq) - 1}
		}
		state := ref.NewDecodeState(serveEngine.MaxSeq)
		t0 := time.Now()
		var logits []float32
		background("nn.prefill", i, func() {
			h := ref.Decode([]*nn.DecodeState{state}, [][]int{seq})
			logits = ref.DecodeLogits(h, rows).Row(0)
		})
		prefillPerToken = append(prefillPerToken, ms(time.Since(t0))/float64(len(seq)))
		if w.icl {
			continue // scoring never decodes or samples
		}
		background("nn.sample", i, func() { sampler.Sample(rng, logits, genSample) })
		// Decode steps at 1, 2 and 8 sequences, each a few tokens into the
		// generation, where the live run spends its time.
		for _, b := range []int{1, 2, 8} {
			states := make([]*nn.DecodeState, b)
			prompts := make([][]int, b)
			for j := range states {
				states[j] = ref.NewDecodeState(serveEngine.MaxSeq)
				prompts[j] = in.reqs[(i+j)%len(in.reqs)].prompt
			}
			ref.Decode(states, prompts)
			tok := make([][]int, b)
			lastRows := make([]int, b)
			for j := range tok {
				tok[j] = []int{rng.Intn(serveModel.VocabSize)}
				lastRows[j] = j
			}
			for step := 0; step < genMaxNew/4; step++ {
				background(fmt.Sprintf("nn.decode_step_b%d", b), i, func() {
					ref.DecodeLogits(ref.Decode(states, tok), lastRows)
				})
			}
		}
	}
	if w.icl {
		// Retrieval, with each suite task's own prompt length.
		for i, task := range eval.Suite() {
			prompt := make([]int, task.PromptLen)
			for n := 0; n < 8; n++ {
				in.truth.Sample(rng, prompt)
				background("eval.retrieve", i, func() { retriever.Retrieve(prompt, iclShots, iclDemoLen) })
			}
		}
	}

	spans := rec.snapshot()
	byName, total := blockingMs(spans)
	all := map[string][]float64{}
	for _, s := range spans {
		all[s.Name] = append(all[s.Name], float64(s.dur())/1e6)
	}
	engineDo := median(byName["serve.engine_do"])
	res.layer["serve.engine_do_ms"] = engineDo
	res.layer["serve.wire_overhead_ms"] = requestMs - engineDo
	res.layer["nn.prefill_ms_per_token"] = median(prefillPerToken)
	res.layer["nn.decode_step_b1_ms"] = median(all["nn.decode_step_b1"])
	res.layer["nn.decode_step_b2_ms"] = median(all["nn.decode_step_b2"])
	res.layer["nn.decode_step_b8_ms"] = median(all["nn.decode_step_b8"])
	res.layer["nn.sample_ms"] = median(all["nn.sample"])
	res.layer["eval.retrieve_ms"] = median(all["eval.retrieve"])
	critical := median(total)
	res.layer["critical_path_ms"] = critical
	res.layer["traced_op_ms"] = requestMs
	res.layer["unattributed_share"] = 1 - critical/requestMs
	res.layer["peak_rss_mb"] = peakRSSMB()
	res.note("replayed_requests", float64(len(total)), "count")
	if w.icl {
		scores := float64(len(run.latMs) - run.failed)
		res.note("score_cycle_ms", run.span.Seconds()*1e3/scores, "ms (retrieval + request)")
	}
	path, err := writeTrace(e.outDir, w.name, spans)
	if err != nil {
		res.fail(fmt.Sprintf("writing the trace: %v", err))
		return
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
}

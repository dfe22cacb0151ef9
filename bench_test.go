package photon

// One testing.B benchmark per paper table and figure, each regenerating the
// artifact through the experiment harness at Quick scale, plus
// micro-benchmarks for the hot substrate kernels (matmul, forward/backward,
// wire codec, ring all-reduce, one federated round).
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"photon/internal/bench"
	"photon/internal/data"
	"photon/internal/ddp"
	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/tensor"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), io.Discard, bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper tables.
func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable78(b *testing.B) { benchExperiment(b, "table78") }

// Paper figures.
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }

// Ablations called out in DESIGN.md.
func BenchmarkAblationAsync(b *testing.B)       { benchExperiment(b, "ablation-async") }
func BenchmarkAblationOuterOpt(b *testing.B)    { benchExperiment(b, "ablation-outeropt") }
func BenchmarkAblationRecipe(b *testing.B)      { benchExperiment(b, "ablation-recipe") }
func BenchmarkAblationOptState(b *testing.B)    { benchExperiment(b, "ablation-optstate") }
func BenchmarkAblationCompression(b *testing.B) { benchExperiment(b, "ablation-compression") }
func BenchmarkAblationCodecConvergence(b *testing.B) {
	benchExperiment(b, "ablation-codec-convergence")
}
func BenchmarkAblationSubFed(b *testing.B) { benchExperiment(b, "ablation-subfed") }
func BenchmarkAblationDDP(b *testing.B)    { benchExperiment(b, "ablation-ddp") }

// --- substrate micro-benchmarks ---

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewMatrix(128, 128)
	y := tensor.NewMatrix(128, 128)
	c := tensor.NewMatrix(128, 128)
	tensor.RandNormal(rng, x.Data, 0, 1)
	tensor.RandNormal(rng, y.Data, 0, 1)
	b.SetBytes(128 * 128 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(c, x, y)
	}
}

func benchTinyModel() (*nn.Model, nn.Batch) {
	cfg := nn.ConfigTiny
	cfg.SeqLen = 16
	m := nn.NewModel(cfg, rand.New(rand.NewSource(1)))
	st := data.NewShard(data.C4Like(cfg.VocabSize), 0, 2)
	return m, st.NextBatch(4, 16)
}

func BenchmarkForwardBackward(b *testing.B) {
	m, batch := benchTinyModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Params().ZeroGrads()
		m.ForwardBackward(batch)
	}
}

func BenchmarkAdamWStep(b *testing.B) {
	m, batch := benchTinyModel()
	o := opt.NewAdamW(0.9, 0.95, 0.01)
	m.Params().ZeroGrads()
	m.ForwardBackward(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Step(m.Params(), 1e-3)
	}
}

func BenchmarkLinkEncodeCompressed(b *testing.B) {
	payload := make([]float32, 100_000)
	rng := rand.New(rand.NewSource(1))
	tensor.RandNormal(rng, payload, 0, 0.01)
	codec := link.FlateCodec{}
	b.SetBytes(int64(len(payload) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := link.EncodeVector(codec, payload)
		if err != nil {
			b.Fatal(err)
		}
		m := &link.Message{Type: link.MsgUpdate, Payload: enc}
		if err := link.Encode(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingAllReduce8x100k(b *testing.B) {
	buffers := make([][]float32, 8)
	for w := range buffers {
		buffers[w] = make([]float32, 100_000)
	}
	b.SetBytes(8 * 100_000 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ddp.RingAllReduce(buffers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFederatedRound(b *testing.B) {
	cfg := nn.ConfigTiny
	cfg.SeqLen = 16
	part, err := data.IIDPartition(data.C4Like(cfg.VocabSize), 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	clients := make([]*fed.Client, 4)
	for i := range clients {
		clients[i] = fed.NewClient(part.SourceNames[i], cfg, part.ClientStreams[i],
			opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01))
	}
	global := nn.NewModel(cfg, rand.New(rand.NewSource(1))).Params().Flatten(nil)
	spec := fed.LocalSpec{Steps: 8, BatchSize: 4, SeqLen: 16, Schedule: opt.Constant(3e-3), ClipNorm: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updates := make([][]float32, 0, len(clients))
		for _, c := range clients {
			res, err := c.RunRound(context.Background(), global, 0, spec)
			if err != nil {
				b.Fatal(err)
			}
			updates = append(updates, res.Update)
		}
		delta, err := fed.MeanDelta(updates)
		if err != nil {
			b.Fatal(err)
		}
		fed.FedAvg{}.Step(global, delta, i)
	}
}

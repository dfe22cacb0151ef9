package bench

import (
	"context"
	"fmt"
	"io"

	"photon/internal/data"
	"photon/internal/ddp"
	"photon/internal/fed"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/topo"
)

// photonOuter is the paper's recipe: FedAvg with server learning rate 1.0.
func photonOuter() fed.OuterOpt { return fed.FedAvg{LR: 1.0} }

// runCentralized trains the matched centralized baseline: one worker with
// the federation's effective batch Bg = N·Bl for R·τ steps (identical token
// budget), using the linearly LR-scaled centralized recipe.
func runCentralized(ctx context.Context, cfg nn.Config, steps, globalBatch int, maxLR float64, seed int64) (*metrics.History, error) {
	res, err := ddp.Run(ctx, ddp.Config{
		ModelConfig: cfg,
		Seed:        seed,
		Steps:       steps,
		Workers:     1,
		BatchSize:   globalBatch,
		SeqLen:      cfg.SeqLen,
		Schedule:    opt.PaperCosine(maxLR, steps),
		ClipNorm:    1.0,
		Streams:     []data.Stream{data.NewShard(data.C4Like(cfg.VocabSize), 60, 31)},
		Validation:  validation(cfg),
		EvalEvery:   1,
	})
	if err != nil {
		return nil, err
	}
	return res.History, nil
}

// fedVsCent runs the federated recipe and the token-matched centralized
// baseline for one config, returning both histories.
func fedVsCent(ctx context.Context, cfg nn.Config, n, rounds, tau int, seed int64) (fedH, cenH *metrics.History, err error) {
	clients, err := federation(cfg, n, seed+100)
	if err != nil {
		return nil, nil, err
	}
	fedH, err = runFed(ctx, cfg, clients, photonOuter(), proxySpec(tau, proxyLR), rounds, n, seed, 0)
	if err != nil {
		return nil, nil, err
	}
	// Centralized recipe: same token budget; the safe centralized LR for
	// the N×-larger batch follows linear scaling from the small-batch rate
	// (Appendix C.1), capped at the stability limit observed for the proxy.
	cenLR := opt.LinearLRScale(proxyLR, proxyBatch, proxyBatch)
	cenH, err = runCentralized(ctx, cfg, rounds*tau, n*proxyBatch, cenLR, seed)
	if err != nil {
		return nil, nil, err
	}
	return fedH, cenH, nil
}

// Figure3 reproduces the paper's Figure 3: perplexity convergence of Photon
// versus centralized training for the 3B- and 7B-proxy models (global model
// validation and client train perplexity per federated round; centralized
// validation at the equivalent token budget per round).
func Figure3(ctx context.Context, w io.Writer, scale Scale) error {
	rounds, tau, n := 21, 16, 4
	if scale == Quick {
		rounds, tau = 8, 8
	}
	for _, cfg := range []nn.Config{sized(nn.ConfigTinyM), sized(nn.ConfigTinyL)} {
		fedH, cenH, err := fedVsCent(ctx, cfg, n, rounds, tau, 3)
		if err != nil {
			return err
		}
		fprintf(w, "Figure 3 (%s): fed vs centralized convergence (N=%d, τ=%d)\n", cfg.Name, n, tau)
		headers := []string{"Round", "FedValPPL", "FedTrainPPL", "CenValPPL", "CenTrainPPL"}
		var rows [][]string
		for i, r := range fedH.Rounds {
			c := cenH.Rounds[min(i*tau+tau-1, len(cenH.Rounds)-1)]
			rows = append(rows, []string{fmt.Sprintf("%d", r.Round),
				f1(r.Perplexity), f1(nn.Perplexity(r.TrainLoss)),
				f1(c.Perplexity), f1(nn.Perplexity(c.TrainLoss))})
		}
		fprintf(w, "%s\n", metrics.Table(headers, rows))
	}
	return nil
}

// sized normalizes a proxy config to the experiment sequence length.
func sized(c nn.Config) nn.Config {
	c.SeqLen = 16
	return c
}

// Figure4 reproduces the paper's Figure 4 table: final federated versus
// centralized perplexity per model size with the relative gain.
func Figure4(ctx context.Context, w io.Writer, scale Scale) error {
	rounds, tau, n := 24, 16, 4
	if scale == Quick {
		rounds, tau = 8, 8
	}
	fprintf(w, "Figure 4: federated vs centralized perplexity by model size\n")
	headers := []string{"Size", "Params", "Fed PPL", "Cent PPL", "Gain(%)"}
	var rows [][]string
	for _, cfg := range []nn.Config{sized(nn.ConfigTinyS), sized(nn.ConfigTinyM), sized(nn.ConfigTinyL)} {
		fedH, cenH, err := fedVsCent(ctx, cfg, n, rounds, tau, 5)
		if err != nil {
			return err
		}
		fp, cp := fedH.BestPPL(), cenH.BestPPL()
		rows = append(rows, []string{cfg.Name, fmt.Sprintf("%d", cfg.ParamCount()),
			f1(fp), f1(cp), f1(100 * (cp - fp) / cp)})
	}
	fprintf(w, "%s", metrics.Table(headers, rows))
	return nil
}

// Figure5 reproduces the paper's Figure 5: the compute-time trade-off —
// wall time to two target perplexities as a function of the global batch
// size Bg = N·Bl for different local-step counts. R(N) is measured on proxy
// runs; wall time charges each round at the paper's 125M cost.
func Figure5(ctx context.Context, w io.Writer, scale Scale) error {
	taus := map[int]int{64: 8, 128: 16, 512: 24} // paper τ → proxy τ
	ns := []int{1, 2, 4, 8, 16}
	targets := []float64{42, 35}
	if scale == Quick {
		taus = map[int]int{64: 8}
		ns = []int{1, 4, 16}
	}
	const bandwidthGbps = 2.5
	fprintf(w, "Figure 5: wall time to target perplexity vs global batch size (Bl=%d)\n", proxyBatch)
	headers := []string{"τ(paper)", "N", "Bg", "Rounds→42", "Wall→42[s]", "Rounds→35", "Wall→35[s]"}
	var rows [][]string
	for _, tauPaper := range sortedIntKeys(taus) {
		tauProxy := taus[tauPaper]
		for _, n := range ns {
			clients, err := federation(proxyCfg(), n, 11)
			if err != nil {
				return err
			}
			maxRounds := 600 / tauProxy * 8
			if scale == Quick {
				maxRounds = 40
			}
			hist, err := runFed(ctx, proxyCfg(), clients, photonOuter(), proxySpec(tauProxy, proxyLR),
				maxRounds, n, 2, targets[len(targets)-1])
			if err != nil {
				return err
			}
			m := paper125MModel(tauPaper, bandwidthGbps)
			row := []string{fmt.Sprintf("%d", tauPaper), fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", n*proxyBatch)}
			for _, target := range targets {
				if r, ok := hist.RoundsToPPL(target); ok {
					row = append(row, fmt.Sprintf("%d", r), f1(float64(r)*m.RoundTime(topo.RAR, n)))
				} else {
					row = append(row, ">budget", "-")
				}
			}
			rows = append(rows, row)
		}
	}
	fprintf(w, "%s", metrics.Table(headers, rows))
	return nil
}

func sortedIntKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

// Table3 reproduces the paper's Table 3: Photon versus DiLoCo(ηs=0.1)
// wall time to the two target perplexities across client counts.
func Table3(ctx context.Context, w io.Writer, scale Scale) error {
	ns := []int{2, 4, 8}
	tauPaper, tauProxy := 128, 16
	maxRounds := 300
	if scale == Quick {
		ns = []int{2, 4}
		maxRounds = 40
	}
	const bandwidthGbps = 2.5
	fprintf(w, "Table 3: Photon vs DiLoCo(ηs=0.1, µ=0.9) wall time to target perplexity\n")
	headers := []string{"N", "Method", "Wall→42[s]", "(x)", "Wall→35[s]", "(x)"}
	var rows [][]string
	m := paper125MModel(tauPaper, bandwidthGbps)
	for _, n := range ns {
		type method struct {
			name  string
			outer fed.OuterOpt
		}
		walls := map[string][2]float64{}
		for _, meth := range []method{
			{"DiLoCo(0.1)", fed.NewDiLoCo(0.1, 0.9)},
			{"Photon", photonOuter()},
		} {
			clients, err := federation(proxyCfg(), n, 13)
			if err != nil {
				return err
			}
			hist, err := runFed(ctx, proxyCfg(), clients, meth.outer, proxySpec(tauProxy, proxyLR),
				maxRounds, n, 4, 35)
			if err != nil {
				return err
			}
			var w2 [2]float64
			for ti, target := range []float64{42, 35} {
				if r, ok := hist.RoundsToPPL(target); ok {
					w2[ti] = float64(r) * m.RoundTime(topo.RAR, n)
				}
			}
			walls[meth.name] = w2
		}
		d, p := walls["DiLoCo(0.1)"], walls["Photon"]
		ratio := func(a, b float64) string {
			if a == 0 || b == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", b/a)
		}
		fmtWall := func(v float64) string {
			if v == 0 {
				return ">budget"
			}
			return f1(v)
		}
		rows = append(rows,
			[]string{fmt.Sprintf("%d", n), "DiLoCo(0.1)", fmtWall(d[0]), "1x", fmtWall(d[1]), "1x"},
			[]string{fmt.Sprintf("%d", n), "Photon", fmtWall(p[0]), ratio(d[0], p[0]), fmtWall(p[1]), ratio(d[1], p[1])})
	}
	fprintf(w, "%s", metrics.Table(headers, rows))
	return nil
}

// Figure8 reproduces the appendix Figure 8: DiLoCo's server learning-rate
// sweep (ηs ∈ {0.1, 0.3, 0.5, 0.7}, µ=0.9) against Photon at N=4.
func Figure8(ctx context.Context, w io.Writer, scale Scale) error {
	rounds, tauProxy, n := 40, 16, 4
	if scale == Quick {
		rounds = 12
	}
	fprintf(w, "Figure 8: perplexity convergence, Photon vs DiLoCo ηs sweep (N=%d)\n", n)
	type curve struct {
		name  string
		outer fed.OuterOpt
	}
	curves := []curve{
		{"DiLoCo(0.1)", fed.NewDiLoCo(0.1, 0.9)},
		{"DiLoCo(0.3)", fed.NewDiLoCo(0.3, 0.9)},
		{"DiLoCo(0.5)", fed.NewDiLoCo(0.5, 0.9)},
		{"DiLoCo(0.7)", fed.NewDiLoCo(0.7, 0.9)},
		{"Photon", photonOuter()},
	}
	series := map[string][]float64{}
	for _, c := range curves {
		clients, err := federation(proxyCfg(), n, 17)
		if err != nil {
			return err
		}
		hist, err := runFed(ctx, proxyCfg(), clients, c.outer, proxySpec(tauProxy, proxyLR),
			rounds, n, 6, 0)
		if err != nil {
			return err
		}
		_, ppls := hist.PPLSeries()
		series[c.name] = ppls
	}
	headers := []string{"Round"}
	for _, c := range curves {
		headers = append(headers, c.name)
	}
	var rows [][]string
	for r := 0; r < rounds; r++ {
		row := []string{fmt.Sprintf("%d", r+1)}
		for _, c := range curves {
			s := series[c.name]
			if r < len(s) {
				row = append(row, f1(s[r]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	fprintf(w, "%s", metrics.Table(headers, rows))
	return nil
}

// Figure7 reproduces the paper's Figure 7: robustness to data heterogeneity
// on the Pile-like sources — full participation with 4/8/16 clients versus
// an IID reference, and partial participation sampling 25/50/100% of a
// 16-client federation.
func Figure7(ctx context.Context, w io.Writer, scale Scale) error {
	rounds, tauProxy := 30, 8
	fullNs := []int{4, 8, 16}
	partialKs := []int{4, 8, 16} // of 16 clients: 25%, 50%, 100%
	if scale == Quick {
		rounds = 10
		fullNs = []int{4}
		partialKs = []int{4, 16}
	}
	cfg := proxyCfg()
	pile := data.PileLike(cfg.VocabSize)
	pileMix := data.NewMixtureSource("pile", pile)
	val := data.NewValidationSet(pileMix, 16, cfg.SeqLen, 24680)

	runOn := func(part *data.Partition, k int, seed int64) (*metrics.History, error) {
		clients := make([]*fed.Client, part.NumClients())
		for i := range clients {
			clients[i] = fed.NewClient(part.SourceNames[i], cfg, part.ClientStreams[i],
				opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01))
		}
		res, err := fed.Run(ctx, fed.RunConfig{
			ModelConfig: cfg, Seed: seed, Rounds: rounds, ClientsPerRound: k,
			Clients: clients, Outer: photonOuter(), Spec: proxySpec(tauProxy, proxyLR),
			Validation: val, EvalEvery: 1,
		})
		if err != nil {
			return nil, err
		}
		return res.History, nil
	}

	fprintf(w, "Figure 7 (full participation): non-IID vs IID by client count\n")
	var runs []labeledHist
	for _, n := range fullNs {
		nonIID, err := data.BySourcePartition(pile, n, 21)
		if err != nil {
			return err
		}
		h, err := runOn(nonIID, n, 8)
		if err != nil {
			return err
		}
		runs = append(runs, labeledHist{fmt.Sprintf("nonIID-%d", n), h})
		iid, err := data.IIDPartition(pileMix, n, 22)
		if err != nil {
			return err
		}
		h2, err := runOn(iid, n, 8)
		if err != nil {
			return err
		}
		runs = append(runs, labeledHist{fmt.Sprintf("IID-%d", n), h2})
	}
	printCurves(w, runs, rounds)

	fprintf(w, "\nFigure 7 (partial participation): 16 non-IID clients, K sampled per round\n")
	runs = runs[:0]
	for _, k := range partialKs {
		nonIID, err := data.BySourcePartition(pile, 16, 23)
		if err != nil {
			return err
		}
		h, err := runOn(nonIID, k, 9)
		if err != nil {
			return err
		}
		runs = append(runs, labeledHist{fmt.Sprintf("K=%d(%.0f%%)", k, 100*float64(k)/16), h})
	}
	printCurves(w, runs, rounds)
	return nil
}

// labeledHist pairs a curve label with its training history.
type labeledHist struct {
	label string
	hist  *metrics.History
}

func printCurves(w io.Writer, runs []labeledHist, rounds int) {
	headers := []string{"Round"}
	for _, r := range runs {
		headers = append(headers, r.label)
	}
	var rows [][]string
	for i := 0; i < rounds; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, r := range runs {
			_, ppls := r.hist.PPLSeries()
			if i < len(ppls) {
				row = append(row, f1(ppls[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	fprintf(w, "%s", metrics.Table(headers, rows))
}

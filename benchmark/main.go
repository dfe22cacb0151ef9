// Command benchmark measures photon end to end: three federated workloads
// (fed.Serve + fed.ServeClient) and three serving workloads (serve.Server +
// serve.Client), all over link TCP loopback, and — with -trace 1 — replays
// each workload layer by layer under spans. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names a metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them and bench_test.go
// checks that the two agree.
type metricDef struct{ Name, Unit string }

// endToEnd is printed by every workload on an untraced run. An operation
// ("op") is a round on fed-sync-*, a version commit on fed-async and a
// request on serve-*; tokens are trained, generated or scored tokens.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"tokens_per_s", "tokens/s"},
	{"wire_bytes_per_op", "bytes"},
}

// perLayer is printed by every workload on a traced run; a layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"critical_path_ms", "ms"},
	{"unattributed_share", "ratio"},
	{"traced_op_ms", "ms"},
	{"peak_rss_mb", "MB"},

	{"data.next_batch_ms", "ms"},
	{"data.validate_ms", "ms"},
	{"nn.fwd_bwd_ms", "ms"},
	{"opt.step_ms", "ms"},
	{"link.encode_model_ms", "ms"},
	{"link.decode_model_ms", "ms"},
	{"link.encode_update_ms", "ms"},
	{"link.decode_update_ms", "ms"},
	{"link.send_recv_ms", "ms"},
	{"link.frame_bytes", "bytes"},
	{"fed.client_round_ms", "ms"},
	{"fed.fold_ms", "ms"},
	{"fed.outer_step_ms", "ms"},
	{"fed.final_ppl", "perplexity"},
	{"fed.mean_staleness", "versions"},
	{"ckpt.append_ms", "ms"},
	{"ckpt.sync_ms", "ms"},
	{"ckpt.compact_ms", "ms"},
	{"ckpt.replay_ms", "ms"},
	{"ckpt.bytes_per_commit", "bytes"},
	{"cluster.stragglers", "count"},
	{"cluster.evictions", "count"},
	{"cluster.joins", "count"},
	{"topo.predicted_round_ms", "ms"},

	{"serve.engine_do_ms", "ms"},
	{"serve.wire_overhead_ms", "ms"},
	{"nn.prefill_ms_per_token", "ms"},
	{"nn.decode_step_b1_ms", "ms"},
	{"nn.decode_step_b2_ms", "ms"},
	{"nn.decode_step_b8_ms", "ms"},
	{"nn.sample_ms", "ms"},
	{"eval.retrieve_ms", "ms"},
	{"eval.context_tokens", "count"},
	{"eval.cont_tokens", "count"},
	{"eval.shared_prefix_token_share", "ratio"},

	{"reported.broadcast_ms", "ms"},
	{"reported.train_ms", "ms"},
	{"reported.encode_ms", "ms"},
	{"reported.wire_ms", "ms"},
	{"reported.decode_ms", "ms"},
	{"reported.aggregate_ms", "ms"},
	{"reported.eval_ms", "ms"},
}

// env is one run's settings.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// Set-up is sampled setupsMin to setupsMax times per run, until
	// setupBudget has gone into it; setup_s is the samples' median.
	setupsMin, setupsMax int
	setupBudget          time.Duration
	// quick marks a run too short to train (bench_test.go): the quality
	// thresholds are skipped, every exactness check stays.
	quick bool
}

// window is how long the untraced run measures. A traced run spends half of
// the time on the live run that feeds the replay and half on the replay.
func (e env) window() time.Duration {
	s := e.seconds
	if e.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// moreSetups reports whether another throwaway set-up should run before the
// measured one, given the samples taken so far.
func (e env) moreSetups(samples []float64) bool {
	n := len(samples) + 1 // the measured run's own set-up is the last sample
	if n < e.setupsMin {
		return true
	}
	var spent float64
	for _, s := range samples {
		spent += s
	}
	return n < e.setupsMax && spent < e.setupBudget.Seconds()
}

// result is one run of one workload.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // failed output checks
	e2e       map[string]float64
	layer     map[string]float64
	notes     []note // diagnostics: printed, never gated
}

type note struct {
	name  string
	value float64
	unit  string
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) fail(problem string) { r.problems = append(r.problems, problem) }

func (r *result) note(name string, value float64, unit string) {
	r.notes = append(r.notes, note{name, value, unit})
}

// print writes every metric by name with its unit, the diagnostics, any
// failed check, and — as the last line — the JSON object the driver reads.
func (r *result) print(w io.Writer, trace bool) error {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(w, "# %s\n", r.workload)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
		out.Metrics[d.Name] = jsonMetric{vals[d.Name], d.Unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n.name, n.value, n.unit)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-32s %16.6g ratio (%d of %d)\n", "failed_share", share, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// subSeed derives an independent seed for one generated input from the
// benchmark seed, so every input moves with -seed and none shares a stream.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// workloadNames lists the workloads in the order a full set runs them.
func workloadNames() []string {
	var names []string
	for _, w := range fedWorkloads {
		names = append(names, w.name)
	}
	for _, w := range serveWorkloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload runs one workload once, traced or not.
func runWorkload(ctx context.Context, name string, e env) (*result, error) {
	for _, w := range fedWorkloads {
		if w.name == name {
			return measureFed(ctx, w, e)
		}
	}
	for _, w := range serveWorkloads {
		if w.name == name {
			return measureServe(ctx, w, e)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs the whole set")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 15, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1: replay the workload layer by layer and print the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run this many sets, each on its own seed, and check every end-to-end metric's spread against its bound in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat K]")
		os.Exit(2)
	}
	if _, err := os.Stat("benchmark/go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (bash benchmark/run.sh): traces and scratch files go to benchmark/out")
		os.Exit(2)
	}
	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	e := env{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: "benchmark/out", setupsMin: 3, setupsMax: 15, setupBudget: time.Second}
	ctx := context.Background()

	if *repeat > 1 {
		if err := repeatSets(ctx, names, e, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, name := range names {
		res, err := runWorkload(ctx, name, e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if err := res.print(os.Stdout, e.trace); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		ok = ok && len(res.problems) == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// repeatSets runs k untraced sets, set i on seed+i, and prints each
// end-to-end metric's quartile spread beside its bound. It fails when a
// spread exceeds its bound (setup_s is printed but, as in the acceptance
// rule, not held to it) or a check fails.
func repeatSets(ctx context.Context, names []string, e env, k int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	e.trace = false
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	seed0 := e.seed
	for i := 0; i < k; i++ {
		e.seed = seed0 + int64(i)
		for _, name := range names {
			res, err := runWorkload(ctx, name, e)
			if err != nil {
				return err
			}
			if len(res.problems) > 0 {
				return fmt.Errorf("%s (seed %d): %v", name, e.seed, res.problems)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[name][d.Name] = append(values[name][d.Name], res.e2e[d.Name])
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", i+1, k, name)
		}
	}
	var over []string
	fmt.Printf("%-18s %-20s %14s %10s %8s\n", "workload", "metric", "median", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			v := values[name][d.Name]
			spread := quartileSpread(v)
			fmt.Printf("%-18s %-20s %14.6g %10.4f %8.2f\n", name, d.Name, median(v), spread, bounds[d.Name])
			if d.Name != "setup_s" && spread > bounds[d.Name] {
				over = append(over, name+"/"+d.Name)
			}
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("spread over bound: %v", over)
	}
	return nil
}

// readBounds reads each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

package photon

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"photon/internal/ckpt"
)

func TestJobDefaultsConverge(t *testing.T) {
	res, err := NewJob(WithRounds(8)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 8 {
		t.Fatalf("want 8 rounds of stats, got %d", len(res.Stats))
	}
	if res.FinalPerplexity >= 55 {
		t.Fatalf("default run did not learn: ppl %v", res.FinalPerplexity)
	}
	if res.NumParams() < 1000 {
		t.Fatalf("model too small: %d params", res.NumParams())
	}
}

func TestJobUnknownSize(t *testing.T) {
	if _, err := NewJob(WithModel("enormous")).Run(context.Background()); err == nil {
		t.Fatal("unknown size accepted")
	}
	if _, err := NewJob(WithBackend(BackendCentralized), WithModel("nope")).Run(context.Background()); err == nil {
		t.Fatal("unknown size accepted by the centralized backend")
	}
	if _, err := ModelConfig(Size7B); err != nil {
		t.Fatal(err)
	}
}

func TestJobServerOptimizers(t *testing.T) {
	for _, s := range []ServerOptimizer{FedAvg, FedMom, DiLoCo} {
		res, err := NewJob(WithRounds(2), WithServerOptimizer(string(s))).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(res.Stats) != 2 {
			t.Fatalf("%s: %d stats", s, len(res.Stats))
		}
	}
}

func TestJobHeterogeneous(t *testing.T) {
	res, err := NewJob(WithRounds(4), WithDataSource("pile")).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPerplexity >= 64 {
		t.Fatalf("heterogeneous run did not learn: %v", res.FinalPerplexity)
	}
}

func TestJobCheckpointAndGenerate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.ckpt")
	res, err := NewJob(WithRounds(3), WithCheckpoint(path)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Load(path); err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
	toks := res.Generate(7, []int{1, 2, 3}, 12, 0.8)
	if len(toks) != 12 {
		t.Fatalf("generated %d tokens", len(toks))
	}
	// A missing checkpoint is a clean error.
	if _, err := NewJob(WithRounds(1), WithResume(path+".missing")).Run(context.Background()); err == nil {
		t.Fatal("missing resume checkpoint accepted")
	}
}

func TestPlanDeployment(t *testing.T) {
	plans, err := PlanDeployment(Size125M, nil, 512, 2, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("want 3 topology plans, got %d", len(plans))
	}
	var selected *TopologyPlan
	for i := range plans {
		if plans[i].Selected {
			if selected != nil {
				t.Fatal("multiple plans selected")
			}
			selected = &plans[i]
		}
	}
	if selected == nil {
		t.Fatal("no plan selected")
	}
	if selected.Topology != "RAR" {
		t.Fatalf("unconstrained deployment should pick RAR, got %s", selected.Topology)
	}

	// Privacy constraint forces PS.
	plans, err = PlanDeployment(Size125M, nil, 512, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Selected && p.Topology != "PS" {
			t.Fatalf("privacy-constrained deployment picked %s", p.Topology)
		}
		if p.Topology != "PS" && p.RuledOutReason == "" {
			t.Fatalf("%s should be ruled out under privacy constraints", p.Topology)
		}
	}

	// Dropout risk excludes RAR.
	plans, err = PlanDeployment(Size125M, nil, 512, 2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Topology == "RAR" && p.RuledOutReason == "" {
			t.Fatal("RAR should be ruled out under dropout risk")
		}
	}

	if _, err := PlanDeployment(Size125M, nil, 0, 2, true, false); err == nil {
		t.Fatal("invalid localSteps accepted")
	}
}

func TestPlanDeploymentCommScaling(t *testing.T) {
	// 7B comm time must dwarf 125M comm time at the same topology.
	small, err := PlanDeployment(Size125M, nil, 512, 2, true, false)
	if err != nil {
		t.Fatal(err)
	}
	big, err := PlanDeployment(Size7B, nil, 512, 0.032, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !(big[0].CommSeconds > 10*small[0].CommSeconds) {
		t.Fatalf("7B comm %v should dwarf 125M comm %v", big[0].CommSeconds, small[0].CommSeconds)
	}
	if math.IsNaN(big[0].CommShare) || big[0].CommShare <= 0 || big[0].CommShare >= 1 {
		t.Fatalf("bad comm share %v", big[0].CommShare)
	}
}

func TestJobNetworkedValidation(t *testing.T) {
	client := func(opts ...JobOption) error {
		_, err := NewJob(append([]JobOption{WithBackend(BackendClient), WithAddr("127.0.0.1:1")}, opts...)...).Run(context.Background())
		return err
	}
	if err := client(WithClientID("x"), WithShard(99)); err == nil {
		t.Fatal("bad shard accepted")
	}
	if err := client(); err == nil {
		t.Fatal("missing ID accepted")
	}
	if _, err := NewJob(WithBackend(BackendAggregator), WithAddr("127.0.0.1:0")).Run(context.Background()); err == nil {
		t.Fatal("ExpectClients=0 accepted")
	}
	if _, err := NewJob(WithBackend(BackendCentralized), WithWorkers(100)).Run(context.Background()); err == nil {
		t.Fatal("too many workers accepted")
	}
}

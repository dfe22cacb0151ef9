package fed

import (
	"context"
	"path/filepath"
	"testing"

	"photon/internal/ckpt"
)

// TestResumeFromCheckpoint exercises the crash-recovery path: a run is
// checkpointed, "crashes", and a second run resumes from the checkpoint,
// continuing to improve rather than restarting from scratch.
func TestResumeFromCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "global.ckpt")

	first, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
		c.Rounds = 5
		c.EvalEvery = 1
		c.CheckpointPath = path
	}))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 5 {
		t.Fatalf("checkpoint at round %d, want 5", snap.Round)
	}

	resumed, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
		c.Rounds = 5
		c.EvalEvery = 1
		c.InitParams = snap.Params
		c.StartRound = snap.Round
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Round numbering continues.
	if got := resumed.History.Rounds[0].Round; got != 6 {
		t.Fatalf("resumed first round: got %d want 6", got)
	}
	// The resumed run starts from the checkpointed quality, not from
	// scratch: its first evaluation must be far below the cold-start
	// perplexity of the original run's first round.
	cold := first.History.Rounds[0].Perplexity
	warm := resumed.History.Rounds[0].Perplexity
	if !(warm < cold*0.95) {
		t.Fatalf("resume did not preserve progress: cold %v warm %v", cold, warm)
	}
	// And it keeps improving.
	if !(resumed.History.FinalPPL() <= warm*1.1) {
		t.Fatalf("resumed run regressed: %v -> %v", warm, resumed.History.FinalPPL())
	}
}

func TestInitParamsLengthChecked(t *testing.T) {
	_, err := Run(context.Background(), baseRun(t, func(c *RunConfig) {
		c.InitParams = []float32{1, 2, 3}
	}))
	if err == nil {
		t.Fatal("mismatched InitParams accepted")
	}
}

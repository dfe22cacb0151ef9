package photon

// End-to-end integration test: mid-run client failure tolerance.

import (
	"context"
	"testing"

	"photon/internal/data"
	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/opt"
)

func tinyNetCfg() nn.Config {
	c := nn.ConfigTiny
	c.SeqLen = 16
	return c
}

func netSpec() fed.LocalSpec {
	return fed.LocalSpec{Steps: 4, BatchSize: 4, SeqLen: 16,
		Schedule: opt.Constant(3e-3), ClipNorm: 1}
}

func netClient(t *testing.T, id string, shard int) *fed.Client {
	t.Helper()
	cfg := tinyNetCfg()
	stream := data.NewShard(data.C4Like(cfg.VocabSize), shard, 7)
	return fed.NewClient(id, cfg, stream, opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01))
}

// TestServerToleratesMidRunClientLoss joins three clients, has one vanish
// after the first round, and verifies the aggregator finishes the run with
// partial updates from the survivors.
func TestServerToleratesMidRunClientLoss(t *testing.T) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Two healthy clients.
	for i := 0; i < 2; i++ {
		go func(i int) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_ = fed.ServeClient(context.Background(), conn, netClient(t, string(rune('a'+i)), i), netSpec())
		}(i)
	}
	// One client that answers round 1 and then disconnects.
	go func() {
		conn, err := link.Dial(l.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := fed.Handshake(conn, "flaky", ""); err != nil {
			return
		}
		msg, err := conn.Recv()
		if err != nil || msg.Type != link.MsgModel {
			return
		}
		global, err := link.DecodePayload(nil, msg.Payload)
		if err != nil {
			return
		}
		c := netClient(t, "flaky", 5)
		res, err := c.RunRound(context.Background(), global, 0, netSpec())
		if err != nil {
			return
		}
		_ = conn.Send(&link.Message{Type: link.MsgUpdate, Round: msg.Round,
			ClientID: "flaky", Meta: res.Metrics, Payload: link.Dense(res.Update)})
		// Vanish before round 2.
	}()

	cfg := tinyNetCfg()
	res, err := fed.Serve(context.Background(), l, fed.ServerConfig{
		ModelConfig:   cfg,
		Seed:          23,
		Rounds:        3,
		ExpectClients: 3,
		Outer:         fed.FedAvg{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Rounds[0].Clients != 3 {
		t.Fatalf("round 1 should have all 3 clients, got %d", res.History.Rounds[0].Clients)
	}
	lastRound := res.History.Rounds[2]
	if lastRound.Clients != 2 {
		t.Fatalf("round 3 should proceed with 2 survivors, got %d", lastRound.Clients)
	}
	if lastRound.UpdateNorm == 0 {
		t.Fatal("surviving clients produced no aggregate update")
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"photon/internal/ckpt"
	"photon/internal/data"
	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/topo"
)

// Layer replay of a federated workload. After the live run, the benchmark
// walks through rounds (commits, for fed-async) itself, calling each
// layer's public functions with the workload's exact shapes and wrapping
// every call in a span. Members train side by side, as many as the live
// run has, so the cores are contended as they are live; every other span
// runs alone. What the live round costs beyond the sum of these spans —
// orchestration, goroutine hand-offs, contention between the aggregator
// and its members — is what unattributed_share reports.

// memberSpans is where a replayed member's decorated stream and optimizer
// hang their spans: under the member's current fed.client_round span.
type memberSpans struct {
	rec                 *recorder
	parent, trace, lane int
}

type spanStream struct {
	data.Stream
	at *memberSpans
}

func (s spanStream) NextBatch(batchSize, seqLen int) nn.Batch {
	id := s.at.rec.begin("data.next_batch", s.at.parent, s.at.trace, s.at.lane)
	defer s.at.rec.end(id)
	return s.Stream.NextBatch(batchSize, seqLen)
}

type spanOptimizer struct {
	opt.Optimizer
	at *memberSpans
}

func (o spanOptimizer) Step(params nn.ParamSet, lr float64) {
	id := o.at.rec.begin("opt.step", o.at.parent, o.at.trace, o.at.lane)
	o.Optimizer.Step(params, lr)
	o.at.rec.end(id)
}

// replayMember is one member of the replayed fleet.
type replayMember struct {
	client *fed.Client
	spec   fed.LocalSpec
	codec  link.Codec // the member's own instance: topk keeps its residual here
	at     *memberSpans
	global []float32
	update []float32
	steps  int
}

// trainRound runs one local round under a fed.client_round span.
func (m *replayMember) trainRound(ctx context.Context, root, trace int, background bool) error {
	var id int
	if background {
		id = m.at.rec.beginBackground("fed.client_round", trace, m.at.lane)
	} else {
		id = m.at.rec.begin("fed.client_round", root, trace, m.at.lane)
	}
	m.at.parent, m.at.trace = id, trace
	res, err := m.client.RunRound(ctx, m.global, m.steps, m.spec)
	m.at.rec.end(id)
	m.steps += m.spec.Steps
	m.update = res.Update
	return err
}

// loopback is a connected link.Conn pair over TCP loopback.
type loopback struct{ a, b *link.Conn }

func newLoopback(ctx context.Context) (*loopback, error) {
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	type accepted struct {
		c   *link.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.AcceptContext(ctx)
		ch <- accepted{c, err}
	}()
	a, err := link.DialContext(ctx, l.Addr())
	acc := <-ch
	if err != nil || acc.err != nil {
		if a != nil {
			a.Close()
		}
		if acc.c != nil {
			acc.c.Close()
		}
		return nil, fmt.Errorf("loopback: dial %v, accept %v", err, acc.err)
	}
	return &loopback{a: a, b: acc.c}, nil
}

func (lb *loopback) close() { lb.a.Close(); lb.b.Close() }

// transfer sends msg from one end and receives it on the other; the span
// around it covers the frame from first byte written to last byte parsed.
func (lb *loopback) transfer(msg *link.Message) (*link.Message, error) {
	type received struct {
		m   *link.Message
		err error
	}
	ch := make(chan received, 1)
	go func() {
		m, err := lb.b.Recv()
		ch <- received{m, err}
	}()
	if err := lb.a.Send(msg); err != nil {
		lb.a.Close() // unblocks the receiver
		<-ch
		return nil, err
	}
	got := <-ch
	return got.m, got.err
}

// replayFed replays w and fills res.layer. liveWAL is the live run's journal
// directory and replayWAL a fresh one; both are empty when the workload does
// not journal.
func replayFed(ctx context.Context, w fedWorkload, e env, in fedInputs, res *result, run *fleetRun, liveWAL, replayWAL string) error {
	rec := newRecorder()
	roundMs := res.e2e["op_ms"]

	// ckpt.replay: what a restarted aggregator pays to read the live run's
	// own journal back.
	if liveWAL != "" {
		id := rec.beginBackground("ckpt.replay", -1, -1)
		wal, _, err := ckpt.OpenWAL(liveWAL, nil)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("ckpt.replay: %w", err)
		}
		wal.Close()
		res.layer["ckpt.replay_ms"] = rec.ms(id)
	}

	serverCodec, err := link.NewCodec(w.codec)
	if err != nil {
		return err
	}
	modelCodec := link.ModelCodec(serverCodec)
	global := append([]float32(nil), run.result.Global...)
	model := run.result.FinalModel

	members := make([]*replayMember, len(w.steps))
	for i := range members {
		codec, err := link.NewCodec(w.codec)
		if err != nil {
			return err
		}
		at := &memberSpans{rec: rec, lane: i}
		members[i] = &replayMember{
			client: w.newMember(in, i,
				spanStream{data.NewShard(in.src, i, in.shardBase), at},
				spanOptimizer{opt.NewAdamW(w.model.Beta1, w.model.Beta2, fedWD), at}),
			spec:  w.spec(i),
			codec: codec,
			at:    at,
		}
	}
	// In fed-async the commit cadence is set by the members with the
	// smallest τ; a member with more local steps trains in the background,
	// loading the cores as it does live without the commit waiting for it.
	cohort, background := members, []*replayMember(nil)
	if w.async != nil {
		cohort = nil
		for _, m := range members {
			if m.spec.Steps == w.steps[0] {
				cohort = append(cohort, m)
			} else {
				background = append(background, m)
			}
		}
	}

	lb, err := newLoopback(ctx)
	if err != nil {
		return err
	}
	defer lb.close()

	var wal *ckpt.WAL
	walPath := filepath.Join(replayWAL, "wal.log")
	if replayWAL != "" {
		if wal, _, err = ckpt.OpenWAL(replayWAL, nil); err != nil {
			return err
		}
		defer wal.Close()
	}

	bgCtx, stopBackground := context.WithCancel(ctx)
	var bg sync.WaitGroup
	for _, m := range background {
		m.global = append([]float32(nil), global...) // its own copy: the replay steps global meanwhile
		bg.Add(1)
		go func(m *replayMember) {
			defer bg.Done()
			for trace := 0; bgCtx.Err() == nil; trace++ {
				if m.trainRound(bgCtx, 0, trace, true) != nil {
					return
				}
			}
		}(m)
	}
	defer func() {
		stopBackground()
		bg.Wait()
	}()

	var frameBytes, walBytes []float64
	deadline := time.Now().Add(e.window())
	const minRounds = 3
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		root := rec.begin("replay.round", 0, r, -1)
		var stepErr error
		step := func(name string, lane int, fn func() error) {
			if stepErr != nil {
				return
			}
			rec.do(name, root, r, lane, func() { stepErr = fn() })
		}
		sent0 := lb.a.Stats().SentBytes

		// Aggregator: encode the global model once, send it to each member.
		var encModel link.EncodedPayload
		step("link.encode_model", -1, func() (err error) {
			encModel, err = link.EncodeVector(modelCodec, global)
			return err
		})
		for _, m := range cohort {
			var got *link.Message
			step("link.send_recv", m.at.lane, func() (err error) {
				got, err = lb.transfer(&link.Message{Type: link.MsgModel, Round: int32(r + 1), Payload: encModel})
				return err
			})
			step("link.decode_model", m.at.lane, func() (err error) {
				m.global, err = link.DecodePayload(m.codec, got.Payload)
				return err
			})
		}
		// Members: train side by side.
		if stepErr == nil {
			errs := make([]error, len(cohort))
			var wg sync.WaitGroup
			for i, m := range cohort {
				wg.Add(1)
				go func(i int, m *replayMember) {
					defer wg.Done()
					errs[i] = m.trainRound(ctx, root, r, false)
				}(i, m)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					stepErr = err
				}
			}
		}
		// Members encode and upload; the aggregator decodes.
		updates := make([][]float32, len(cohort))
		for i, m := range cohort {
			var encUpdate link.EncodedPayload
			step("link.encode_update", m.at.lane, func() (err error) {
				encUpdate, err = link.EncodeVector(m.codec, m.update)
				return err
			})
			var got *link.Message
			step("link.send_recv", m.at.lane, func() (err error) {
				got, err = lb.transfer(&link.Message{Type: link.MsgUpdate, Round: int32(r + 1), ClientID: m.client.ID, Payload: encUpdate})
				return err
			})
			step("link.decode_update", m.at.lane, func() (err error) {
				updates[i], err = link.DecodePayload(serverCodec, got.Payload)
				return err
			})
		}
		if stepErr == nil {
			frameBytes = append(frameBytes, float64(lb.a.Stats().SentBytes-sent0))
		}

		// Aggregator: journal, fold, step, journal, evaluate, commit. The
		// records are the ones fed's journal writes for this mode.
		var walSize0 int64
		if wal != nil {
			walSize0 = fileSize(walPath)
		}
		appendRec := func(name string, record *ckpt.Record) {
			if wal != nil {
				step(name, -1, func() error { return wal.Append(record) })
			}
		}
		if w.async == nil {
			ids := make([]string, len(cohort))
			for i, m := range cohort {
				ids[i] = m.client.ID
			}
			appendRec("ckpt.append", &ckpt.Record{Type: ckpt.RecRoundOpen, Round: r + 1, IDs: ids})
		}
		for i, m := range cohort {
			if w.async == nil {
				appendRec("ckpt.append", &ckpt.Record{Type: ckpt.RecMemberUpdate, Round: r + 1, Member: m.client.ID, Vec: updates[i]})
			} else {
				appendRec("ckpt.append", &ckpt.Record{Type: ckpt.RecBufferFold, Round: r*len(cohort) + i + 1, Epoch: uint64(r), Member: m.client.ID, Vec: updates[i]})
			}
		}
		var delta []float32
		step("fed.fold", -1, func() (err error) {
			delta, err = fed.MeanDelta(updates)
			return err
		})
		step("fed.outer_step", -1, func() error {
			fed.FedAvg{}.Step(global, delta, r+1)
			return nil
		})
		appendRec("ckpt.append", &ckpt.Record{Type: ckpt.RecOuterStep, Round: r + 1, Vec: global})
		if (r+1)%w.evalEvery == 0 {
			step("data.validate", -1, func() error {
				if err := model.Params().LoadFlat(global); err != nil {
					return err
				}
				in.val.Evaluate(model)
				return nil
			})
		}
		commit := ckpt.RecRoundCommit
		if w.async != nil {
			commit = ckpt.RecVersionCommit
		}
		appendRec("ckpt.sync", &ckpt.Record{Type: commit, Round: r + 1})
		if wal != nil && stepErr == nil {
			walBytes = append(walBytes, float64(fileSize(walPath)-walSize0))
		}
		if wal != nil && (r+1)%8 == 0 { // fed compacts its journal every 8 commits
			base := &ckpt.Checkpoint{Round: r + 1, Params: append([]float32(nil), global...)}
			step("ckpt.compact", -1, func() error { return wal.Compact(base, nil) })
		}
		rec.end(root)
		if stepErr != nil {
			return fmt.Errorf("%s: replay round %d: %w", w.name, r+1, stepErr)
		}
	}
	stopBackground()
	bg.Wait()

	spans := rec.snapshot()
	byName, total := blockingMs(spans)
	set := func(metric, spanName string) { res.layer[metric] = median(byName[spanName]) }
	set("data.next_batch_ms", "data.next_batch")
	set("data.validate_ms", "data.validate")
	set("nn.fwd_bwd_ms", "fed.client_round") // self time: the round minus batches and optimizer steps
	set("opt.step_ms", "opt.step")
	set("link.encode_model_ms", "link.encode_model")
	set("link.decode_model_ms", "link.decode_model")
	set("link.encode_update_ms", "link.encode_update")
	set("link.decode_update_ms", "link.decode_update")
	set("link.send_recv_ms", "link.send_recv")
	set("fed.fold_ms", "fed.fold")
	set("fed.outer_step_ms", "fed.outer_step")
	set("ckpt.append_ms", "ckpt.append")
	set("ckpt.sync_ms", "ckpt.sync")
	set("ckpt.compact_ms", "ckpt.compact")
	res.layer["fed.client_round_ms"] = median(longestLaneMs(spans, "fed.client_round"))
	res.layer["link.frame_bytes"] = median(frameBytes)
	res.layer["ckpt.bytes_per_commit"] = median(walBytes)
	critical := median(total)
	res.layer["critical_path_ms"] = critical
	res.layer["traced_op_ms"] = roundMs
	res.layer["unattributed_share"] = 1 - critical/roundMs
	res.layer["peak_rss_mb"] = peakRSSMB()

	// topo's analytic round time, fed with what the replay measured: local
	// throughput ν in batches/s, the frames' size and the loopback rate.
	if w.async == nil {
		trainS := res.layer["fed.client_round_ms"] / 1e3
		xferS := res.layer["link.send_recv_ms"] / 1e3 // per round: one model and one update frame
		frameMB := res.layer["link.frame_bytes"] / float64(len(cohort)) / 1e6
		if trainS > 0 && xferS > 0 && frameMB > 0 {
			tm := topo.Model{
				ModelSizeMB:   frameMB,
				BandwidthMBps: frameMB / xferS,
				Throughput:    float64(w.steps[0]) / trainS,
				LocalSteps:    w.steps[0],
			}
			res.layer["topo.predicted_round_ms"] = tm.RoundTime(topo.PS, len(w.steps)) * 1e3
		}
	}

	nnOpt := res.layer["nn.fwd_bwd_ms"] + res.layer["opt.step_ms"]
	linkCkpt := res.layer["link.encode_model_ms"] + res.layer["link.decode_model_ms"] +
		res.layer["link.encode_update_ms"] + res.layer["link.decode_update_ms"] +
		res.layer["link.send_recv_ms"] + res.layer["ckpt.append_ms"] + res.layer["ckpt.sync_ms"]
	res.note("replayed_rounds", float64(len(total)), "count")
	res.note("share.nn_opt", nnOpt/critical, "ratio of critical_path_ms")
	res.note("share.link_ckpt", linkCkpt/critical, "ratio of critical_path_ms")
	path, err := writeTrace(e.outDir, w.name, spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

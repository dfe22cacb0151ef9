package fed

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"photon/internal/ckpt"
	"photon/internal/link"
	"photon/internal/metrics"
)

// ReconnectConfig tunes RunResilientClient's fault tolerance.
type ReconnectConfig struct {
	// MaxAttempts is how many consecutive failed reconnect attempts are
	// tolerated before the session is abandoned. Zero disables
	// reconnection (a connection loss is fatal, the plain ServeClient
	// behavior).
	MaxAttempts int
	// InitialBackoff is the first retry delay (default 200ms); each
	// subsequent attempt doubles it up to MaxBackoff (default 5s). A
	// successful reconnect resets the backoff.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// CheckpointPath, when non-empty, snapshots the client's local model
	// after every completed round and warm-starts from the snapshot when
	// the process restarts. The aggregator's MsgModel overwrites the
	// parameters each round regardless — the checkpoint's value is a warm
	// local replica (for generation or inspection) across a crash, plus
	// the recorded round for logs.
	CheckpointPath string

	// Codec, when non-empty, requires the aggregator to announce exactly
	// this wire codec; empty accepts whatever the aggregator announces.
	// Either way the codec instance lives on the session, not the
	// connection, so error-feedback state (the topk residual) survives
	// reconnects and dropped coordinates still reach later rounds.
	Codec string
}

func (rc *ReconnectConfig) fill() {
	if rc.InitialBackoff <= 0 {
		rc.InitialBackoff = 200 * time.Millisecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 5 * time.Second
	}
}

// RunResilientClient runs an LLM-C session that survives aggregator
// connection churn: when an established session drops without a clean
// MsgShutdown, it redials with exponential backoff and rejoins under the
// same identity. The elastic aggregator admits the rejoin and the client
// resumes at the aggregator's current round (MsgModel carries the round
// number keying the shared schedule), so a mid-run crash costs at most the
// interrupted round.
//
// The initial dial is NOT retried: failing to reach the aggregator at
// startup is a configuration error and reports immediately. Only a session
// that joined successfully at least once reconnects.
//
// dial builds a fresh connection; it is called once up front and once per
// reconnect attempt. Cancelling ctx stops the session (and any backoff
// sleep) promptly with ctx.Err().
func RunResilientClient(ctx context.Context, dial func(context.Context) (*link.Conn, error), client *Client, spec LocalSpec, rc ReconnectConfig, onRound ...func(metrics.Round)) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	rc.fill()

	var writer *ckpt.AsyncWriter
	if rc.CheckpointPath != "" {
		if snap, err := ckpt.Load(rc.CheckpointPath); err == nil {
			// Warm-start the local replica from the pre-crash state.
			if err := client.Model.Params().LoadFlat(snap.Params); err != nil {
				return fmt.Errorf("fed: client %s: resume checkpoint: %w", client.ID, err)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("fed: client %s: resume checkpoint: %w", client.ID, err)
		}
		writer = ckpt.NewAsyncWriter(rc.CheckpointPath)
		defer writer.Close()
		var ckptErrSeen bool
		onRound = append(onRound, func(r metrics.Round) {
			writer.Submit(&ckpt.Checkpoint{
				Round:  r.Round,
				Step:   r.Round * spec.Steps,
				Meta:   map[string]float64{"loss": r.TrainLoss},
				Params: client.Model.Params().Flatten(nil),
			})
			// Surface a failed write mid-run (once) rather than at Close:
			// a client that cannot persist its warm-start state keeps
			// training, but the operator should know crash recovery is off.
			noteCheckpointErr(&ckptErrSeen, writer.Err())
		})
	}

	session := &Session{Client: client, Spec: spec, Codec: rc.Codec}
	return serveResilient(ctx, dial, client.ID, rc, func(ctx context.Context, conn *link.Conn) error {
		return session.ServeConn(ctx, conn, onRound...)
	})
}

// serveResilient is the one redial loop behind RunResilientClient and
// RunRelay: dial once (a failure here is a configuration error and reports
// immediately), run serve over the connection, and when it ends on a lost
// transport redial with backoff and serve again. A clean end (nil), a
// cancelled ctx (ctx.Err()), and deterministic session errors (protocol
// violation, training failure — they would just recur, since a successful
// redial resets the attempt budget) all return without retrying.
func serveResilient(ctx context.Context, dial func(context.Context) (*link.Conn, error), id string, rc ReconnectConfig, serve func(context.Context, *link.Conn) error) error {
	conn, err := dial(ctx)
	if err != nil {
		return err
	}
	for {
		err := serve(ctx, conn)
		conn.Close()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if rc.MaxAttempts <= 0 || !errors.Is(err, ErrSessionLost) {
			return err
		}
		if conn, err = redial(ctx, dial, id, rc, err); err != nil {
			return err
		}
	}
}

// redial attempts to rebuild the connection with exponential backoff,
// returning the session error wrapped when every attempt fails.
func redial(ctx context.Context, dial func(context.Context) (*link.Conn, error), id string, rc ReconnectConfig, sessionErr error) (*link.Conn, error) {
	backoff := rc.InitialBackoff
	var lastErr error
	for attempt := 1; attempt <= rc.MaxAttempts; attempt++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > rc.MaxBackoff {
			backoff = rc.MaxBackoff
		}
		conn, err := dial(ctx)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fed: client %s: session lost (%v) and %d reconnect attempts failed: %w",
		id, sessionErr, rc.MaxAttempts, lastErr)
}

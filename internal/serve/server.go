package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"photon/internal/link"
	"photon/internal/nn"
)

// Meta keys of the serving wire protocol (MsgGenerate / MsgScore /
// MsgServeResult frames). Token ids travel as dense float32 payloads —
// exact for any vocabulary under 2²⁴.
const (
	// ReqIDKey correlates a result with its request; clients may pipeline
	// many requests on one connection.
	ReqIDKey = "req"
	// MaxNewKey, TempKey, TopKKey, TopPKey, SeedKey carry the generation
	// options of a MsgGenerate.
	MaxNewKey = "max_new"
	TempKey   = "temp"
	TopKKey   = "top_k"
	TopPKey   = "top_p"
	SeedKey   = "seed"
	// DeadlineMSKey is the request's time budget in milliseconds from
	// server receipt (relative, so clocks need not agree).
	DeadlineMSKey = "deadline_ms"
	// PromptLenKey splits a MsgScore payload into prompt and continuation.
	PromptLenKey = "prompt_len"
	// OKKey is 1 on success; failures carry the error text in ClientID.
	OKKey = "ok"
	// LogProbKey carries a scoring result in nats.
	LogProbKey = "logprob"
	// QueuedUSKey and TotalUSKey report the request's queue wait and total
	// latency in microseconds, so clients see server-side cost.
	QueuedUSKey = "queued_us"
	TotalUSKey  = "total_us"
)

// tokensToPayload packs token ids as a dense float32 payload.
func tokensToPayload(tokens []int) link.EncodedPayload {
	f := make([]float32, len(tokens))
	for i, t := range tokens {
		f[i] = float32(t)
	}
	return link.Dense(f)
}

// payloadToTokens unpacks a dense float32 payload back to token ids,
// rejecting any value that is not one: negative, fractional, NaN, or past
// the 2²⁴ a float32 holds exactly.
func payloadToTokens(p link.EncodedPayload) ([]int, error) {
	f, err := link.DecodePayload(nil, p)
	if err != nil {
		return nil, fmt.Errorf("serve: decode tokens: %w", err)
	}
	tokens := make([]int, len(f))
	for i, v := range f {
		if !(v >= 0 && v <= 1<<24) || float64(v) != math.Trunc(float64(v)) {
			return nil, fmt.Errorf("serve: token %d is %v, not a token id", i, v)
		}
		tokens[i] = int(v)
	}
	return tokens, nil
}

// Server exposes an Engine over the link wire protocol. Each connection gets
// a reader goroutine (decoding requests, submitting to the engine) and a
// writer goroutine (serializing results), so many requests can be in flight
// per connection and results return in completion order, not request order.
type Server struct {
	eng *Engine
	l   *link.Listener

	wg     sync.WaitGroup
	connMu sync.Mutex
	conns  map[*link.Conn]struct{}
}

// NewServer wraps an engine and listener. Call Run to accept.
func NewServer(eng *Engine, l *link.Listener) *Server {
	return &Server{eng: eng, l: l, conns: map[*link.Conn]struct{}{}}
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.l.Addr() }

// Run accepts connections until ctx is cancelled, then closes every live
// connection and waits for their handlers. The engine is not closed — the
// caller owns its lifecycle.
func (s *Server) Run(ctx context.Context) error {
	for {
		conn, err := s.l.AcceptContext(ctx)
		if err != nil {
			if ctx.Err() != nil {
				s.connMu.Lock()
				for c := range s.conns {
					c.Close()
				}
				s.connMu.Unlock()
				s.wg.Wait()
				return ctx.Err()
			}
			return err
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle runs one connection: read loop here, write loop in a sibling
// goroutine fed by a results channel (link.Conn allows one concurrent sender,
// so all request goroutines funnel through it).
func (s *Server) handle(conn *link.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()

	results := make(chan *link.Message, 64)
	var reqWG sync.WaitGroup
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for m := range results {
			if err := conn.Send(m); err != nil {
				return // connection gone; readers will notice on their next op
			}
		}
	}()

	for {
		msg, err := conn.Recv()
		if err != nil {
			break // io.EOF on clean close; anything else also ends the conn
		}
		switch msg.Type {
		case link.MsgGenerate, link.MsgScore:
			req, reqID, err := decodeRequest(msg)
			if err != nil {
				results <- errorResult(reqID, err)
				continue
			}
			resCh, err := s.eng.Submit(req)
			if err != nil {
				results <- errorResult(reqID, err)
				continue
			}
			reqWG.Add(1)
			go func(id float64) {
				defer reqWG.Done()
				results <- encodeResult(id, <-resCh)
			}(reqID)
		case link.MsgShutdown:
			reqWG.Wait()
			close(results)
			<-writerDone
			return
		default:
			results <- errorResult(metaOr(msg.Meta, ReqIDKey, 0),
				fmt.Errorf("serve: unexpected message type %d", msg.Type))
		}
	}
	reqWG.Wait()
	close(results)
	<-writerDone
}

func metaOr(m map[string]float64, key string, def float64) float64 {
	if v, ok := m[key]; ok {
		return v
	}
	return def
}

// decodeRequest maps a wire frame to an engine request.
func decodeRequest(msg *link.Message) (Request, float64, error) {
	reqID := metaOr(msg.Meta, ReqIDKey, 0)
	tokens, err := payloadToTokens(msg.Payload)
	if err != nil {
		return Request{}, reqID, err
	}
	req := Request{Seed: int64(metaOr(msg.Meta, SeedKey, 0))}
	if d := metaOr(msg.Meta, DeadlineMSKey, 0); d > 0 {
		req.Deadline = time.Now().Add(time.Duration(d) * time.Millisecond)
	}
	switch msg.Type {
	case link.MsgScore:
		pl := int(metaOr(msg.Meta, PromptLenKey, 0))
		if pl < 0 || pl >= len(tokens) {
			return Request{}, reqID, fmt.Errorf("serve: prompt length %d of %d tokens", pl, len(tokens))
		}
		req.Prompt, req.Cont = tokens[:pl], tokens[pl:]
	default:
		req.Prompt = tokens
		req.MaxNew = int(metaOr(msg.Meta, MaxNewKey, 0))
		req.Opts = nn.SampleOpts{
			Temperature: metaOr(msg.Meta, TempKey, 0),
			TopK:        int(metaOr(msg.Meta, TopKKey, 0)),
			TopP:        metaOr(msg.Meta, TopPKey, 0),
		}
	}
	return req, reqID, nil
}

// encodeResult maps an engine result to its wire frame.
func encodeResult(reqID float64, res Result) *link.Message {
	m := &link.Message{
		Type: link.MsgServeResult,
		Meta: map[string]float64{
			ReqIDKey:    reqID,
			OKKey:       1,
			LogProbKey:  res.LogProb,
			QueuedUSKey: float64(res.Queued.Microseconds()),
			TotalUSKey:  float64(res.Duration.Microseconds()),
		},
	}
	if res.Err != nil {
		m.Meta[OKKey] = 0
		m.ClientID = res.Err.Error()
	}
	if len(res.Tokens) > 0 {
		m.Payload = tokensToPayload(res.Tokens)
	}
	return m
}

func errorResult(reqID float64, err error) *link.Message {
	return &link.Message{
		Type:     link.MsgServeResult,
		ClientID: err.Error(),
		Meta:     map[string]float64{ReqIDKey: reqID, OKKey: 0},
	}
}

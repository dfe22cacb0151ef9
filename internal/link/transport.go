package link

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnStats is a connection's cumulative wire accounting, symmetric in both
// directions: message counts, logical payload elements, and real frame
// bytes (headers included) as they crossed the wire.
type ConnStats struct {
	SentMsgs  int
	RecvMsgs  int
	SentElems int64
	RecvElems int64
	SentBytes int64
	RecvBytes int64
}

// Meter accumulates wire-byte totals across a set of connections — the
// aggregator attaches one to every member connection so per-round
// communication cost is grounded in measured bytes rather than
// element-count estimates.
type Meter struct {
	sentBytes atomic.Int64
	recvBytes atomic.Int64
}

// Totals returns the bytes sent and received across all attached
// connections so far.
func (m *Meter) Totals() (sent, recv int64) {
	return m.sentBytes.Load(), m.recvBytes.Load()
}

// countingWriter counts bytes as Encode emits them, before buffering.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countingReader counts bytes as Decode consumes them, after buffering, so
// the count reflects exactly the frames delivered (not read-ahead).
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Conn is a message-oriented connection between Agg and LLM-C. It is safe
// for one concurrent sender and one concurrent receiver. Payloads travel in
// their codec-encoded form; the negotiated codec is session state owned by
// the fed layer, not the transport.
type Conn struct {
	raw net.Conn
	bw  *bufio.Writer
	cw  *countingWriter
	cr  *countingReader

	sendMu sync.Mutex
	recvMu sync.Mutex

	statMu sync.Mutex
	stats  ConnStats
	meter  *Meter
}

// NewConn wraps a net.Conn in the Photon wire protocol.
func NewConn(raw net.Conn) *Conn {
	bw := bufio.NewWriterSize(raw, 1<<16)
	return &Conn{
		raw: raw,
		bw:  bw,
		cw:  &countingWriter{w: bw},
		cr:  &countingReader{r: bufio.NewReaderSize(raw, 1<<16)},
	}
}

// SetMeter attaches a shared byte meter; subsequent sends and receives add
// their frame bytes to it. Attach before concurrent use.
func (c *Conn) SetMeter(m *Meter) {
	c.statMu.Lock()
	c.meter = m
	c.statMu.Unlock()
}

// Send encodes and flushes one message.
func (c *Conn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.sendLocked(m)
}

func (c *Conn) sendLocked(m *Message) error {
	before := c.cw.n
	if err := Encode(c.cw, m); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("link: flush: %w", err)
	}
	frameBytes := c.cw.n - before
	c.statMu.Lock()
	c.stats.SentMsgs++
	c.stats.SentElems += int64(m.Payload.Elems)
	c.stats.SentBytes += frameBytes
	meter := c.meter
	c.statMu.Unlock()
	if meter != nil {
		meter.sentBytes.Add(frameBytes)
	}
	return nil
}

// Recv blocks for the next message.
func (c *Conn) Recv() (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	return c.recvLocked()
}

func (c *Conn) recvLocked() (*Message, error) {
	before := c.cr.n
	m, err := Decode(c.cr)
	if err != nil {
		return nil, err
	}
	frameBytes := c.cr.n - before
	c.statMu.Lock()
	c.stats.RecvMsgs++
	c.stats.RecvElems += int64(m.Payload.Elems)
	c.stats.RecvBytes += frameBytes
	meter := c.meter
	c.statMu.Unlock()
	if meter != nil {
		meter.recvBytes.Add(frameBytes)
	}
	return m, nil
}

// Close shuts the underlying connection down.
func (c *Conn) Close() error { return c.raw.Close() }

// interrupted is a deadline long past, so installing it expires I/O
// without reading the clock.
var interrupted = time.Unix(1, 0)

// Interrupt expires pending and future I/O: a blocked Send or Recv returns
// a timeout error promptly, and so does every later Send until a
// SendTimeout, and every later Recv until a RecvTimeout, installs a fresh
// deadline. An interrupt that cut no frame short leaves the stream
// reusable.
func (c *Conn) Interrupt() error { return c.raw.SetDeadline(interrupted) }

// SetReadDeadline bounds pending and future receives only.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SendTimeout sends one message with a write deadline of d (d <= 0 means no
// deadline). The deadline is cleared after the send so the connection stays
// usable — the deadline-bounded round I/O the elastic aggregator relies on
// to never block forever on a stalled member.
func (c *Conn) SendTimeout(m *Message, d time.Duration) error {
	if d <= 0 {
		return c.Send(m)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.raw.SetWriteDeadline(time.Now().Add(d))
	defer c.raw.SetWriteDeadline(time.Time{})
	return c.sendLocked(m)
}

// RecvTimeout receives one message with a read deadline of d (d <= 0 means
// block indefinitely), clearing the deadline afterwards. A deadline expiry
// that interrupted a partially read frame leaves the stream unframed, so
// the caller must treat a timeout mid-payload as fatal for the connection;
// a timeout with no bytes read (idle expiry) leaves the stream reusable.
func (c *Conn) RecvTimeout(d time.Duration) (*Message, error) {
	if d <= 0 {
		return c.Recv()
	}
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	c.raw.SetReadDeadline(time.Now().Add(d))
	defer c.raw.SetReadDeadline(time.Time{})
	return c.recvLocked()
}

// Stats returns the connection's cumulative wire accounting.
func (c *Conn) Stats() ConnStats {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.stats
}

// Pipe returns a connected in-process Conn pair running the full wire
// protocol over net.Pipe.
//
//photon:nolint unused-export -- test seam: the fed session and reconnect tests (TestResilientClientReconnectsThroughPipe) drive members over it
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

// Listener accepts Photon connections over TCP.
type Listener struct {
	l net.Listener
}

// Listen starts a plain-TCP listener on addr ("host:port", empty host OK).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("link: listen: %w", err)
	}
	return &Listener{l: l}, nil
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// AcceptContext blocks for the next inbound connection or until ctx is
// cancelled. Cancellation closes the listener (the only portable way to
// unblock a pending accept), so a cancelled AcceptContext ends the
// listener's life — the intended use is server shutdown.
func (l *Listener) AcceptContext(ctx context.Context) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type result struct {
		conn *Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		ch <- result{c, err}
	}()
	select {
	case <-ctx.Done():
		l.Close()
		if r := <-ch; r.conn != nil {
			r.conn.Close()
		}
		return nil, ctx.Err()
	case r := <-ch:
		return r.conn, r.err
	}
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Close stops accepting.
func (l *Listener) Close() error { return l.l.Close() }

// Dial connects to a plain-TCP aggregator.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a plain-TCP aggregator, honoring ctx cancellation
// and deadline during connection establishment (a 10s fallback timeout
// applies when ctx carries no deadline).
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("link: dial: %w", err)
	}
	return NewConn(c), nil
}

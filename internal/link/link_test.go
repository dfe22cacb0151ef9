package link

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleMessage() *Message {
	return &Message{
		Type:     MsgUpdate,
		Round:    42,
		ClientID: "client-07",
		Meta:     map[string]float64{"loss": 3.14, "steps": 512, "lr": 6e-4},
		Payload:  Dense([]float32{1.5, -2.25, 0, 3.375, float32(math.Pi)}),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := sampleMessage()
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n  sent %+v\n  got  %+v", m, got)
	}
	vec, err := DecodePayload(nil, got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 5 || vec[1] != -2.25 {
		t.Fatalf("decoded payload %v", vec)
	}
}

func TestEncodeDecodeEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	m := &Message{Type: MsgShutdown}
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgShutdown || got.ClientID != "" || !got.Payload.IsZero() || got.Meta != nil {
		t.Fatalf("empty message mangled: %+v", got)
	}
}

func TestFlateCodecShrinksRedundantPayload(t *testing.T) {
	// All zeros is the byte-plane layout's best case: the exponent plane
	// Huffman-codes to one bit per element, the sign+mantissa remainder is
	// stored raw, so the floor is 3 + 1/8 bytes per element.
	payload := make([]float32, 50000)
	plain, err := EncodeVector(DenseCodec{}, payload)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := EncodeVector(FlateCodec{}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if comp.CodecID != CodecFlate || comp.WireBytes() > plain.WireBytes()*79/100 {
		t.Fatalf("compression ineffective: codec %d, %d vs %d bytes", comp.CodecID, comp.WireBytes(), plain.WireBytes())
	}
	got, err := FlateCodec{}.Decode(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatal("compressed payload length mismatch after decode")
	}
}

func TestIncompressiblePayloadFallsBackToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := make([]float32, 10000)
	for i := range payload {
		payload[i] = float32(rng.NormFloat64())
	}
	// Random float payloads barely compress; the flate codec must never
	// grow the wire beyond the dense form.
	comp, err := EncodeVector(FlateCodec{}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if comp.WireBytes() > 4*len(payload) {
		t.Fatalf("flate codec grew the payload: %d vs %d", comp.WireBytes(), 4*len(payload))
	}
	got, err := FlateCodec{}.Decode(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatal("payload corrupted")
		}
	}

	// Fully random bit patterns are genuinely incompressible: the codec
	// must fall back to the dense representation (and mark it as such).
	noise := make([]float32, 10000)
	for i := range noise {
		noise[i] = math.Float32frombits(rng.Uint32())
	}
	comp, err = EncodeVector(FlateCodec{}, noise)
	if err != nil {
		t.Fatal(err)
	}
	if comp.CodecID != CodecDense || comp.WireBytes() != 4*len(noise) {
		t.Fatalf("incompressible payload not dense: codec %d, %d bytes", comp.CodecID, comp.WireBytes())
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleMessage()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a body byte: CRC must catch it.
	bad := append([]byte{}, raw...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted body accepted")
	}
	// Bad magic.
	bad2 := append([]byte{}, raw...)
	bad2[0] ^= 0xFF
	if _, err := Decode(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated stream.
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	long := make([]byte, maxIDLen+1)
	m := &Message{Type: MsgJoin, ClientID: string(long)}
	if err := Encode(&bytes.Buffer{}, m); err == nil {
		t.Fatal("oversized client id accepted")
	}
}

func TestPipeTransport(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	want := sampleMessage()
	errc := make(chan error, 1)
	go func() { errc <- a.Send(want) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("pipe transport mangled message")
	}
	st := a.Stats()
	if st.SentMsgs != 1 || st.SentElems != int64(want.Payload.Elems) {
		t.Fatalf("stats: sent=%d elems=%d", st.SentMsgs, st.SentElems)
	}
	if st.SentBytes <= int64(want.Payload.WireBytes()) {
		t.Fatalf("sent bytes %d do not cover the frame", st.SentBytes)
	}
	rst := b.Stats()
	if rst.RecvMsgs != 1 || rst.RecvElems != st.SentElems || rst.RecvBytes != st.SentBytes {
		t.Fatalf("receive stats not symmetric with send: %+v vs %+v", rst, st)
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan *Message, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer c.Close()
		m, _ := c.Recv()
		done <- m
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := sampleMessage()
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil || !reflect.DeepEqual(want, got) {
		t.Fatal("TCP transport failed")
	}
}

// tcpPair returns two ends of a real TCP connection wrapped in the wire
// protocol.
func tcpPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	dialed, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		dialed.Close()
		t.Fatal(a.err)
	}
	t.Cleanup(func() { dialed.Close(); a.c.Close() })
	return NewConn(dialed), NewConn(a.c)
}

// TestInterruptMidRecvReturnsPromptly covers the elastic aggregator's
// cancellation path: an already-blocked Recv must be interrupted by
// Interrupt within a bounded time, and — because no frame bytes were
// consumed by the idle expiry — the connection must be fully reusable in
// both directions once RecvTimeout and SendTimeout install fresh deadlines.
func TestInterruptMidRecvReturnsPromptly(t *testing.T) {
	a, b := tcpPair(t)

	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		errc <- err
	}()
	// Let the receiver block, then interrupt it mid-Recv.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := a.Interrupt(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("interrupted Recv returned a message")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("want timeout error, got %v", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("Recv took %v to observe the interrupt", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not return after Interrupt")
	}

	// The stream consumed no bytes, so the connection must work again end
	// to end once each direction has a fresh deadline.
	want := sampleMessage()
	if err := b.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := a.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("RecvTimeout after interrupt: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("message mangled after interrupt")
	}
	if err := a.SendTimeout(want, 5*time.Second); err != nil {
		t.Fatalf("SendTimeout after interrupt: %v", err)
	}
	if got, err = b.Recv(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("message mangled after interrupt")
	}
}

// TestRecvTimeoutIdleExpiryReusable covers the helper the round loop uses:
// an idle RecvTimeout times out, clears its own deadline, and leaves the
// connection reusable for the next exchange.
func TestRecvTimeoutIdleExpiryReusable(t *testing.T) {
	a, b := tcpPair(t)
	if _, err := a.RecvTimeout(30 * time.Millisecond); err == nil {
		t.Fatal("idle RecvTimeout returned a message")
	}
	want := sampleMessage()
	if err := b.SendTimeout(want, time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := a.RecvTimeout(time.Second)
	if err != nil {
		t.Fatalf("Recv after idle timeout: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("message mangled after RecvTimeout expiry")
	}
	// d <= 0 falls back to a plain blocking Recv/Send.
	go func() { b.SendTimeout(want, 0) }()
	if _, err := a.RecvTimeout(0); err != nil {
		t.Fatal(err)
	}
}

// Property: frame round trip is exact for arbitrary payloads under both
// lossless codecs.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed int64, useFlate bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = float32(rng.NormFloat64())
		}
		var codec Codec = DenseCodec{}
		if useFlate {
			codec = FlateCodec{}
		}
		enc, err := EncodeVector(codec, vec)
		if err != nil {
			return false
		}
		m := &Message{
			Type:     MsgType(1 + rng.Intn(6)),
			Round:    int32(rng.Intn(10000)),
			ClientID: "c",
			Payload:  enc,
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if got.Type != m.Type || got.Round != m.Round || got.Payload.Elems != n {
			return false
		}
		dec, err := DecodePayload(codec, got.Payload)
		if err != nil {
			return false
		}
		for i := range vec {
			if dec[i] != vec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

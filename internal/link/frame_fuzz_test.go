package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// rawBody assembles a frame body field by field, without Encode's checks or
// its key sorting, so tests can build frames Encode never would.
type rawBody struct {
	typ, flags byte
	round      uint32
	id         string
	keys       []string
	vals       []float64
	codec      byte
	elems      uint32
	data       []byte
	claim      int // added to len(data) in the payload length prefix
	trailing   []byte
}

func (r rawBody) bytes() []byte {
	le := binary.LittleEndian
	b := []byte{r.typ, r.flags}
	b = le.AppendUint32(b, r.round)
	b = le.AppendUint32(b, uint32(len(r.id)))
	b = append(b, r.id...)
	b = le.AppendUint32(b, uint32(len(r.keys)))
	for i, k := range r.keys {
		b = le.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = le.AppendUint64(b, math.Float64bits(r.vals[i]))
	}
	b = append(b, r.codec)
	b = le.AppendUint32(b, r.elems)
	b = le.AppendUint32(b, uint32(len(r.data)+r.claim))
	b = append(b, r.data...)
	return append(b, r.trailing...)
}

// frameOf wraps a body in a header with the right magic, length and CRC, so
// the body reaches Decode's field parsing.
func frameOf(body []byte) []byte {
	le := binary.LittleEndian
	h := le.AppendUint32(nil, magic)
	h = le.AppendUint32(h, uint32(len(body)))
	h = le.AppendUint32(h, crc32.ChecksumIEEE(body))
	return append(h, body...)
}

func encodeFrame(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// frameSeeds are Encode's output for every message type, with and without
// Meta, ClientID and payload, across the codecs.
func frameSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(24))
	var seeds [][]byte
	codecs := []string{"dense", "flate", "q8", "topk"}
	for typ := MsgJoin; typ <= MsgObserve; typ++ {
		m := &Message{Type: typ, Round: int32(typ) * 7, ClientID: "member-" + string(rune('a'+typ))}
		if typ%2 == 0 {
			m.Meta = map[string]float64{CodecIDKey: 3, TraceKey: float64(rng.Int63n(1 << 52)), "loss": rng.NormFloat64()}
		}
		if typ%3 != 0 {
			v := make([]float32, 1+rng.Intn(40))
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			c, err := NewCodec(codecs[int(typ)%len(codecs)])
			if err != nil {
				tb.Fatal(err)
			}
			if m.Payload, err = EncodeVector(c, v); err != nil {
				tb.Fatal(err)
			}
		}
		seeds = append(seeds, encodeFrame(tb, m))
	}
	return seeds
}

// FuzzFrameDecode: whatever the bytes, Decode must not panic, and a frame it
// accepts must be one Encode writes — re-encoding the decoded message gives
// back exactly the bytes Decode consumed. Seeds: Encode's frames for every
// message type, plus frames that stop in the header (bad magic, oversized
// length, short header), in the CRC check, in Meta (truncated, repeated and
// unsorted keys), and in the payload section (Elems over the limit, length
// prefixes past or short of the frame's end, unknown flags).
func FuzzFrameDecode(f *testing.F) {
	seeds := frameSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	good := seeds[1]
	badMagic := bytes.Clone(good)
	badMagic[0] ^= 0xff
	badCRC := bytes.Clone(good)
	badCRC[len(badCRC)-1] ^= 0x01
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge[4:], math.MaxUint32)
	meta := rawBody{typ: byte(MsgMetrics), flags: flagCodec, id: "m", keys: []string{"a", "b"}, vals: []float64{1, 2}}
	for _, s := range [][]byte{
		good[:7], badMagic, badCRC, huge, append(bytes.Clone(good), good...),
		frameOf(meta.bytes()),
		frameOf(meta.bytes()[:len(meta.bytes())-12]),
		frameOf(rawBody{typ: 5, flags: flagCodec, keys: []string{"b", "a"}, vals: []float64{1, 2}}.bytes()),
		frameOf(rawBody{typ: 5, flags: flagCodec, keys: []string{"a", "a"}, vals: []float64{1, 2}}.bytes()),
		frameOf(rawBody{typ: 4, flags: flagCodec, codec: CodecDense, elems: MaxPayloadElems + 1}.bytes()),
		frameOf(rawBody{typ: 4, flags: flagCodec, codec: CodecDense, elems: 2, data: make([]byte, 8), trailing: []byte{9}}.bytes()),
		frameOf(rawBody{typ: 4, flags: flagCodec, codec: CodecDense, elems: 2, data: make([]byte, 8), claim: 1}.bytes()),
		frameOf(rawBody{typ: 4, flags: flagCodec, codec: CodecDense, elems: 2, data: make([]byte, 8)}.bytes()[:20]),
		frameOf(rawBody{typ: 4, flags: flagCodec | 1, codec: CodecDense, elems: 2, data: make([]byte, 8)}.bytes()),
		frameOf(rawBody{typ: 4, flags: 0}.bytes()),
		frameOf(rawBody{typ: 6, flags: flagCodec, codec: CodecQ8}.bytes()),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		r := bytes.NewReader(frame)
		m, err := Decode(r)
		if err != nil {
			return
		}
		consumed := frame[:len(frame)-r.Len()]
		var out bytes.Buffer
		if err := Encode(&out, m); err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", m, err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded frame differs from the %d bytes decoded:\n got  %x\n want %x", len(consumed), out.Bytes(), consumed)
		}
	})
}

// TestDecodeAllocatesWhatArrives: a 12-byte header that declares a 1 GiB
// body, followed by EOF, is an error — and Decode must not have allocated
// the declared body to find that out.
func TestDecodeAllocatesWhatArrives(t *testing.T) {
	le := binary.LittleEndian
	hdr := le.AppendUint32(nil, magic)
	hdr = le.AppendUint32(hdr, 1<<30)
	hdr = le.AppendUint32(hdr, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no body decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("Decode allocated %d MiB for a body that never arrived", grew>>20)
	}
}

// TestDecodeLargeFrameRoundTrips: a frame larger than the first read chunk
// decodes to the message encoded, and a truncated copy of it is an error.
func TestDecodeLargeFrameRoundTrips(t *testing.T) {
	v := make([]float32, 3<<18) // 3 MiB of payload
	for i := range v {
		v[i] = float32(i)
	}
	m := &Message{Type: MsgModel, Round: 9, ClientID: "agg", Payload: Dense(v)}
	raw := encodeFrame(t, m)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeFrame(t, got), raw) {
		t.Fatal("large frame does not re-encode to the bytes decoded")
	}
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("a frame one byte short decoded")
	}
}

// TestDecodeRejectsNonCanonicalFrames: frames with a valid CRC that Encode
// would never write are refused rather than decoded into a message that
// re-encodes differently; an empty payload keeps its codec ID.
func TestDecodeRejectsNonCanonicalFrames(t *testing.T) {
	for name, body := range map[string]rawBody{
		"trailing bytes":   {typ: 4, flags: flagCodec, codec: CodecDense, elems: 1, data: make([]byte, 4), trailing: []byte{0}},
		"repeated key":     {typ: 4, flags: flagCodec, keys: []string{"k", "k"}, vals: []float64{1, 2}},
		"unsorted keys":    {typ: 4, flags: flagCodec, keys: []string{"z", "a"}, vals: []float64{1, 2}},
		"unknown flag":     {typ: 4, flags: flagCodec | 1<<5},
		"payload past end": {typ: 4, flags: flagCodec, codec: CodecDense, elems: 1, data: make([]byte, 4), claim: 1},
		"pre-codec frame":  {typ: 4, flags: 0},
	} {
		if _, err := Decode(bytes.NewReader(frameOf(body.bytes()))); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	m := &Message{Type: MsgUpdate, Payload: EncodedPayload{CodecID: CodecQ8}}
	raw := encodeFrame(t, m)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) || !bytes.Equal(encodeFrame(t, got), raw) {
		t.Fatalf("empty q8 payload decoded as %+v", got)
	}
}

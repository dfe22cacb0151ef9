package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randVec draws a random-length vector, deliberately covering length 0 and
// lengths that are not multiples of the q8 block size.
func randVec(rng *rand.Rand) []float32 {
	lengths := []int{0, 1, 2, 7, 255, 256, 257, 1000, 4096 + 3}
	n := lengths[rng.Intn(len(lengths))]
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// Property: the lossless codecs round-trip any vector exactly.
func TestLosslessCodecRoundTripProperty(t *testing.T) {
	for _, name := range []string{"dense", "flate"} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			v := randVec(rng)
			codec, err := NewCodec(name)
			if err != nil {
				return false
			}
			enc, err := EncodeVector(codec, v)
			if err != nil {
				return false
			}
			got, err := codec.Decode(enc)
			if err != nil || len(got) != len(v) {
				return false
			}
			for i := range v {
				if got[i] != v[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Property: q8 round-trips the element count exactly for any length
// (including non-multiples of the block size) and every coordinate within
// half a quantization step of its block's absmax scale.
func TestQ8RoundTripProperty(t *testing.T) {
	f := func(seed int64, bsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randVec(rng)
		bs := 1 + int(bsRaw)%300
		codec := &Q8Codec{BlockSize: bs}
		enc, err := EncodeVector(codec, v)
		if err != nil {
			return false
		}
		got, err := codec.Decode(enc)
		if err != nil || len(got) != len(v) {
			return false
		}
		for b := 0; b*bs < len(v); b++ {
			lo, hi := b*bs, (b+1)*bs
			if hi > len(v) {
				hi = len(v)
			}
			var maxAbs float64
			for _, x := range v[lo:hi] {
				if a := math.Abs(float64(x)); a > maxAbs {
					maxAbs = a
				}
			}
			step := maxAbs / 127
			for i := lo; i < hi; i++ {
				if math.Abs(float64(got[i]-v[i])) > step/2+1e-7 {
					return false
				}
			}
		}
		// ~1 byte per element plus one scale per block.
		if len(v) > 0 {
			nBlocks := (len(v) + bs - 1) / bs
			if enc.WireBytes() != 4+4*nBlocks+len(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: topk round-trips the element count, transmits at most
// ceil(keep*n) pairs, and every transmitted coordinate is exact.
func TestTopKRoundTripProperty(t *testing.T) {
	f := func(seed int64, keepRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randVec(rng)
		keep := 0.05 + 0.9*float64(keepRaw)/255
		codec := &TopKCodec{Keep: keep}
		enc, err := EncodeVector(codec, v)
		if err != nil {
			return false
		}
		got, err := codec.Decode(enc)
		if err != nil || len(got) != len(v) {
			return false
		}
		if len(v) == 0 {
			return enc.IsZero()
		}
		k := int(math.Ceil(keep * float64(len(v))))
		if enc.WireBytes() > 8*k {
			return false
		}
		// A fresh codec has a zero residual, so every transmitted value
		// equals its input coordinate and the rest decode to zero.
		for i := range v {
			if got[i] != 0 && got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKErrorFeedback: coordinates dropped in round r are carried into
// round r+1 via the residual, so a constant input is fully delivered over
// 1/keep rounds — nothing is permanently lost, only delayed.
func TestTopKCodecErrorFeedback(t *testing.T) {
	const n = 100
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i + 1) // distinct magnitudes, all nonzero
	}
	codec := &TopKCodec{Keep: 0.25}
	delivered := make([]float32, n)
	zero := make([]float32, n)
	// Round 1 sends v; later rounds send zero updates, so everything that
	// arrives is residual drainage.
	for round := 0; round < 5; round++ {
		in := zero
		if round == 0 {
			in = v
		}
		enc, err := EncodeVector(codec, in)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			delivered[i] += dec[i]
		}
	}
	for i := range v {
		if math.Abs(float64(delivered[i]-v[i])) > 1e-5 {
			t.Fatalf("coordinate %d: delivered %v of %v after residual drain", i, delivered[i], v[i])
		}
	}
}

func TestTopKSizeChangeRejected(t *testing.T) {
	codec := &TopKCodec{Keep: 0.5}
	if _, err := codec.Encode(make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Encode(make([]float32, 9)); err == nil {
		t.Fatal("size change accepted despite pending residual")
	}
}

func TestParameterizedCodecNames(t *testing.T) {
	c, err := NewCodec("topk:0.05")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.(*TopKCodec).Keep; got != 0.05 {
		t.Fatalf("keep = %v", got)
	}
	c, err = NewCodec("q8:128")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.(*Q8Codec).BlockSize; got != 128 {
		t.Fatalf("block size = %v", got)
	}
	for _, bad := range []string{"topk:1.5", "topk:zero", "q8:0", "dense:1", "nope"} {
		if _, err := NewCodec(bad); err == nil {
			t.Fatalf("NewCodec(%q) accepted", bad)
		}
	}
	// Parameterized names resolve to their base codec's wire ID.
	if CodecWireID("topk:0.05") != CodecTopK || CodecWireID("q8:128") != CodecQ8 {
		t.Fatal("parameterized names must share the base wire ID")
	}
}

func TestRegisterCodecCustom(t *testing.T) {
	RegisterCodec("test-negate", func() Codec { return negateCodec{} })
	id := CodecWireID("test-negate")
	if id < customIDBase {
		t.Fatalf("custom codec id %d below the custom range", id)
	}
	if CodecNameByID(id) != "test-negate" {
		t.Fatal("id does not resolve back to the name")
	}
	c, err := NewCodec("test-negate")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeVector(c, []float32{1, -2})
	if err != nil {
		t.Fatal(err)
	}
	if enc.CodecID != id {
		t.Fatalf("EncodeVector did not stamp the registered id: %d vs %d", enc.CodecID, id)
	}
	dec, err := c.Decode(enc)
	if err != nil || dec[0] != 1 || dec[1] != -2 {
		t.Fatalf("custom codec round trip: %v (%v)", dec, err)
	}
}

// negateCodec flips signs on the wire — a minimal custom codec that leaves
// CodecID stamping to EncodeVector.
type negateCodec struct{}

func (negateCodec) Name() string { return "test-negate" }
func (negateCodec) Encode(v []float32) (EncodedPayload, error) {
	neg := make([]float32, len(v))
	for i, x := range v {
		neg[i] = -x
	}
	return EncodedPayload{Elems: len(v), Data: payloadBytes(neg)}, nil
}
func (negateCodec) Decode(p EncodedPayload) ([]float32, error) {
	out := floatsFromBytes(p.Data)
	for i := range out {
		out[i] = -out[i]
	}
	return out, nil
}

func TestDecodePayloadMismatchFailsFast(t *testing.T) {
	q8, _ := NewCodec("q8")
	topk, _ := NewCodec("topk")
	enc, err := EncodeVector(q8, []float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(topk, enc); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("q8 frame accepted by a topk session: %v", err)
	}
	// The lossless built-ins are always accepted (model-broadcast fallback
	// and legacy frames).
	dense := Dense([]float32{4, 5})
	if vec, err := DecodePayload(topk, dense); err != nil || len(vec) != 2 {
		t.Fatalf("dense fallback rejected: %v", err)
	}
}

// TestCorruptedPayloadRejected flips/truncates codec payloads and expects
// every codec to reject them with an error instead of panicking or
// returning garbage lengths.
func TestCorruptedPayloadRejected(t *testing.T) {
	v := make([]float32, 300)
	rng := rand.New(rand.NewSource(5))
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	for _, name := range []string{"dense", "flate", "q8", "topk"} {
		codec, err := NewCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeVector(codec, v)
		if err != nil {
			t.Fatal(err)
		}
		// Truncated data.
		trunc := enc
		trunc.Data = enc.Data[:len(enc.Data)-3]
		if dec, err := codec.Decode(trunc); err == nil && len(dec) == len(v) {
			t.Errorf("%s: truncated payload decoded to full length", name)
		}
		// Element-count lie.
		lie := enc
		lie.Elems = enc.Elems + 7
		if dec, err := codec.Decode(lie); err == nil && len(dec) == len(v) {
			t.Errorf("%s: elems mismatch not detected", name)
		}
	}

	// topk with an out-of-range index must be rejected. At 1% of 300
	// elements the pairs are smaller than the sparse layout, so Encode
	// writes pairs (TestTopKSparseRefusesHostile covers the sparse layout).
	topk, _ := NewCodec("topk:0.01")
	enc, err := EncodeVector(topk, v)
	if err != nil || enc.CodecID != CodecTopK {
		t.Fatalf("codec %d, err %v", enc.CodecID, err)
	}
	bad := enc
	bad.Data = append([]byte(nil), enc.Data...)
	binary.LittleEndian.PutUint32(bad.Data[0:], uint32(len(v)+10))
	if _, err := topk.Decode(bad); err == nil {
		t.Error("topk: out-of-range index accepted")
	}
	// Encode writes indices strictly increasing; a repeated or descending
	// one would decode fewer coordinates than the pairs the wire charges.
	for name, idx := range map[string][2]uint32{"repeated": {6, 6}, "descending": {7, 6}} {
		data := make([]byte, 16)
		for i, x := range idx {
			binary.LittleEndian.PutUint32(data[8*i:], x)
			binary.LittleEndian.PutUint32(data[8*i+4:], math.Float32bits(float32(i+1)))
		}
		if _, err := topk.Decode(EncodedPayload{CodecID: CodecTopK, Elems: 96, Data: data}); err == nil {
			t.Errorf("topk: %s index accepted", name)
		}
	}

	// An unknown codec ID on a frame must fail to decode with a clear error.
	unknown := EncodedPayload{CodecID: 250, Elems: 3, Data: []byte{1, 2, 3}}
	if _, err := DecodePayload(nil, unknown); err == nil {
		t.Error("unknown codec id decoded")
	}
}

// TestCorruptedFrameRejected covers frame-level rejection for the new
// payload section: a flipped codec-ID byte fails the CRC, and a
// CRC-consistent frame whose payload bytes disagree with its codec is
// rejected at decode time.
func TestCorruptedFrameRejected(t *testing.T) {
	q8, _ := NewCodec("q8")
	enc, err := EncodeVector(q8, make([]float32, 300))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, &Message{Type: MsgUpdate, Payload: enc}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Any single-byte flip in the body (including the codec ID) fails CRC.
	flip := append([]byte(nil), raw...)
	flip[len(flip)-enc.WireBytes()-9] ^= 0xFF // the codec-ID byte
	if _, err := Decode(bytes.NewReader(flip)); err == nil {
		t.Fatal("flipped codec id accepted")
	}

	// A "valid" frame whose payload length disagrees with the codec's own
	// layout is caught by the codec, not trusted.
	short := enc
	short.Data = enc.Data[:len(enc.Data)-5]
	var buf2 bytes.Buffer
	if err := Encode(&buf2, &Message{Type: MsgUpdate, Payload: short}); err != nil {
		t.Fatal(err)
	}
	m, err := Decode(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(q8, m.Payload); err == nil {
		t.Fatal("inconsistent q8 payload decoded")
	}
}

// TestPreCodecFrameRejected: the retired pre-codec frame layout (flag bit 1
// clear, no codec-ID byte) is refused as a bad frame rather than guessed at —
// its flate flavor would mis-decode under the byte-plane layout.
func TestPreCodecFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleMessage()); err != nil {
		t.Fatal(err)
	}
	for _, flags := range []byte{0, 1} { // old dense, old flate
		raw := append([]byte(nil), buf.Bytes()...)
		raw[13] = flags
		binary.LittleEndian.PutUint32(raw[8:], crc32.ChecksumIEEE(raw[12:]))
		if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flags %#x: got %v, want ErrBadFrame", flags, err)
		}
	}
}

// refTopKEncode is the previous TopKCodec.Encode kept verbatim as the
// selection reference: error feedback into a work copy, float magnitudes,
// quickselect over a scratch copy for the k-th largest, then the same
// strictly-above / ties-in-index-order emit.
func refTopKEncode(residual, v []float32, keep float64) []byte {
	work := make([]float32, len(v))
	for i := range v {
		work[i] = v[i] + residual[i]
	}
	k := int(math.Ceil(keep * float64(len(work))))
	if k > len(work) {
		k = len(work)
	}
	mags := make([]float32, len(work))
	for i, x := range work {
		mags[i] = float32(math.Abs(float64(x)))
	}
	thresh := refQuickselect(append([]float32(nil), mags...), k-1)
	tieBudget := k
	for _, m := range mags {
		if m > thresh {
			tieBudget--
		}
	}
	data := make([]byte, 0, 8*k)
	var idx [8]byte
	for i, x := range work {
		keepIt := mags[i] > thresh
		if !keepIt && mags[i] == thresh && tieBudget > 0 {
			keepIt = true
			tieBudget--
		}
		if keepIt {
			binary.LittleEndian.PutUint32(idx[0:], uint32(i))
			binary.LittleEndian.PutUint32(idx[4:], math.Float32bits(x))
			data = append(data, idx[:]...)
			residual[i] = 0
		} else {
			residual[i] = x
		}
	}
	return data
}

// refQuickselect returns the element at descending-order index target,
// partitioning s in place.
func refQuickselect(s []float32, target int) float32 {
	median3 := func(a, b, c float32) float32 {
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		if a > b {
			b = a
		}
		return b
	}
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := median3(s[lo], s[lo+(hi-lo)/2], s[hi])
		i, j := lo, hi
		for i <= j {
			for s[i] > p {
				i++
			}
			for s[j] < p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return s[target]
		}
	}
	return s[target]
}

// carriedPairs is the (u32 index | f32 value) list a top-k payload carries,
// in either layout.
func carriedPairs(t *testing.T, p EncodedPayload) []byte {
	if p.CodecID != CodecSparse {
		return p.Data
	}
	dec, err := applySparse(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i, x := range dec {
		if p.Data[4+i/8]>>(i%8)&1 == 1 {
			out = binary.LittleEndian.AppendUint32(out, uint32(i))
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
		}
	}
	return out
}

// TestTopKRadixMatchesQuickselect is the golden equivalence pin for the
// bracketed radix selection: over seeded vectors — gaussian, all-equal,
// heavy ties, mixed signs and zeros, denormals and huge magnitudes — and
// k from 1 to n, consecutive encodes (so the residual carries) must carry
// byte-identical (index, value) pairs, in whichever layout, no larger than
// the reference's, and leave bit-identical residuals to the quickselect
// reference. At a length where the bracket samples every few sums it runs
// an AdamW step's update, whose error feedback puts the k-th magnitude
// inside a cluster of exact ties, and two shapes the sample misreads, which
// must make the bracket miss on both sides.
func TestTopKRadixMatchesQuickselect(t *testing.T) {
	shapes := map[string]func(rng *rand.Rand, i int) float32{
		"gaussian":  func(rng *rand.Rand, _ int) float32 { return float32(rng.NormFloat64()) * 0.02 },
		"all-equal": func(*rand.Rand, int) float32 { return 0.5 },
		"all-zero":  func(*rand.Rand, int) float32 { return 0 },
		"heavy-tie": func(rng *rand.Rand, _ int) float32 { return float32(rng.Intn(4)) - 1.5 },
		"signed-tie": func(rng *rand.Rand, i int) float32 {
			if i%2 == 0 {
				return -1
			}
			return float32(rng.Intn(2))
		},
		"extremes": func(rng *rand.Rand, _ int) float32 {
			switch rng.Intn(5) {
			case 0:
				return math.Float32frombits(uint32(rng.Intn(1 << 23))) // denormal
			case 1:
				return math.MaxFloat32 * float32(rng.Float64()-0.5)
			case 2:
				return float32(math.Copysign(0, -1))
			default:
				return float32(rng.NormFloat64())
			}
		},
		// Same high 16 key bits everywhere: the second counting pass decides.
		"one-bucket": func(rng *rand.Rand, _ int) float32 {
			return math.Float32frombits(0x3f800000 | uint32(rng.Intn(1<<15)))
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 7, 64, 1000} {
			checkTopKRounds(t, name, n, 3, gen, nil)
		}
	}

	const n = 20033
	stride := sampleStride(n)
	if stride < 3 {
		t.Fatalf("stride %d: the bracket samples every sum at n=%d", stride, n)
	}
	// ±lr·(1+ε), a few distinct ε so that sums of equal steps tie exactly; an
	// eighth of the coordinates take weight decay alone.
	adamw := func(rng *rand.Rand, i int) float32 {
		x := float32(3e-3)
		if rng.Intn(4) == 0 {
			x *= 1 + float32(rng.Intn(8))*0x1p-20
		}
		if rng.Intn(2) == 0 {
			x = -x
		}
		if i%8 == 0 {
			x *= 1e-4
		}
		return x
	}
	checkTopKRounds(t, "adamw-reset", n, 6, adamw, nil)
	var misses [2]int
	for name, sampled := range map[string]float32{"sample-low": 1, "sample-high": 2} {
		gen := func(_ *rand.Rand, i int) float32 {
			if i%stride == 0 {
				return sampled
			}
			return 3 - sampled
		}
		checkTopKRounds(t, name, n, 3, gen, &misses)
	}
	if misses[0] == 0 || misses[1] == 0 {
		t.Fatalf("bracket misses below and above the k-th largest: %v, want both", misses)
	}
}

// checkTopKRounds encodes rounds vectors of gen over n elements at each keep
// fraction and holds every payload and residual to refTopKEncode's. misses,
// when non-nil, counts the encodes whose bracket held more than k elements
// above it, and those whose bracket and above held fewer than k.
func checkTopKRounds(t *testing.T, name string, n, rounds int, gen func(*rand.Rand, int) float32, misses *[2]int) {
	t.Helper()
	for _, keep := range []float64{1e-9, 0.1, 0.5, 0.999, 1} { // 1e-9 → k=1
		rng := rand.New(rand.NewSource(int64(n)*31 + int64(keep*1000)))
		codec := &TopKCodec{Keep: keep}
		refResidual := make([]float32, n)
		for round := 0; round < rounds; round++ {
			v := make([]float32, n)
			for i := range v {
				v[i] = gen(rng, i)
			}
			if misses != nil && codec.residual != nil { // the bracket reads the residual the first Encode makes
				k := int(math.Ceil(keep * float64(n)))
				lo, hi := codec.bracket(v, k)
				above, from := 0, 0
				for i, x := range v {
					key := magKey(x + refResidual[i])
					above += b2i(key > hi)
					from += b2i(key >= lo)
				}
				misses[0] += b2i(above > k)
				misses[1] += b2i(from < k)
			}
			want := refTopKEncode(refResidual, v, keep)
			enc, err := codec.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := carriedPairs(t, enc); !bytes.Equal(got, want) || len(enc.Data) > len(want) {
				t.Fatalf("%s n=%d keep=%g round %d: payload (codec %d, %d bytes) carries %d pair bytes, the quickselect reference %d",
					name, n, keep, round, enc.CodecID, len(enc.Data), len(got), len(want))
			}
			for i := range refResidual {
				if math.Float32bits(codec.residual[i]) != math.Float32bits(refResidual[i]) {
					t.Fatalf("%s n=%d keep=%g round %d: residual[%d] = %x, reference %x",
						name, n, keep, round, i, math.Float32bits(codec.residual[i]), math.Float32bits(refResidual[i]))
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTopKPrefersLargerOverEarlierTies: a coordinate strictly above the
// threshold must always be transmitted, even when enough threshold ties
// precede it to fill the density budget.
func TestTopKPrefersLargerOverEarlierTies(t *testing.T) {
	codec := &TopKCodec{Keep: 0.5}
	enc, err := EncodeVector(codec, []float32{1, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := codec.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[3] != 2 {
		t.Fatalf("largest coordinate dropped in favor of earlier ties: %v", dec)
	}
	if enc.WireBytes() != 8*2 {
		t.Fatalf("density budget not exact: %d bytes", enc.WireBytes())
	}
}

// TestDecodeRejectsOversizedLengthPrefix: a frame whose payload length
// prefix exceeds the bytes actually present must be rejected before any
// allocation, not after a gigabyte make().
func TestDecodeRejectsOversizedLengthPrefix(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleMessage()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The payload byte-count field sits 4 bytes before the payload data.
	payloadLen := sampleMessage().Payload.WireBytes()
	off := len(raw) - payloadLen - 4
	binary.LittleEndian.PutUint32(raw[off:], 1<<31)
	// Refresh the CRC so only the length lie is on trial.
	binary.LittleEndian.PutUint32(raw[8:], crc32.ChecksumIEEE(raw[12:]))
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized payload length prefix accepted")
	}
}

// TestFlateBitExactOnAdversarialPatterns: the byte-plane split must put
// every one of the 32 bits back where it came from — NaNs with payloads,
// signalling NaNs, ±Inf, denormals, −0, and exponent/mantissa boundary
// values — both when the plane form wins and when dense does.
func TestFlateBitExactOnAdversarialPatterns(t *testing.T) {
	patterns := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, 0x007fffff, // denormals
		0x00800000, 0x80800000, // smallest normals
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, 0x7fa5a5a5, // NaNs
		0x3f800000, 0xbf800000, 0x3f7fffff, 0x3f800001, 0x00ff00ff, 0xff00ff00, 0xaaaaaaaa, 0x55555555,
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 4, 5, len(patterns), 4096} {
		for _, fill := range []string{"patterns", "random-bits", "gaussian"} {
			v := make([]float32, n)
			for i := range v {
				switch fill {
				case "patterns":
					v[i] = math.Float32frombits(patterns[i%len(patterns)])
				case "random-bits":
					v[i] = math.Float32frombits(rng.Uint32())
				default:
					v[i] = float32(rng.NormFloat64()) * 0.02
				}
			}
			enc, err := EncodeVector(FlateCodec{}, v)
			if err != nil {
				t.Fatal(err)
			}
			if enc.WireBytes() > 4*n {
				t.Fatalf("%s n=%d: %d wire bytes exceeds dense", fill, n, enc.WireBytes())
			}
			if fill == "gaussian" && n == 4096 && enc.CodecID != CodecFlate {
				t.Fatalf("gaussian weights fell back to codec %d", enc.CodecID)
			}
			got, err := DecodePayload(nil, enc)
			if err != nil {
				t.Fatalf("%s n=%d: %v", fill, n, err)
			}
			if len(got) != n {
				t.Fatalf("%s n=%d: decoded %d elems", fill, n, len(got))
			}
			for i := range v {
				if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
					t.Fatalf("%s n=%d: elem %d %08x came back %08x", fill, n, i, math.Float32bits(v[i]), math.Float32bits(got[i]))
				}
			}
		}
	}
}

// TestFlateHostilePayloads: every way a byte-plane payload can disagree
// with its own framing is an error, checked before the output is allocated.
func TestFlateHostilePayloads(t *testing.T) {
	v := make([]float32, 512)
	rng := rand.New(rand.NewSource(12))
	for i := range v {
		v[i] = float32(rng.NormFloat64()) * 0.02
	}
	good, err := EncodeVector(FlateCodec{}, v)
	if err != nil || good.CodecID != CodecFlate {
		t.Fatalf("setup: codec %d, err %v", good.CodecID, err)
	}
	planeLen := int(binary.LittleEndian.Uint32(good.Data))
	// reframe builds a payload from an arbitrary plane and remainder with a
	// consistent length prefix, so only the named defect is on trial.
	reframe := func(plane, rem []byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(plane)))
		return append(append(out, plane...), rem...)
	}
	plane, rem := good.Data[4:4+planeLen], good.Data[4+planeLen:]
	exp := make([]byte, len(v))
	for i, x := range v {
		exp[i] = byte(math.Float32bits(x) >> 23)
	}
	prefixLie := append([]byte(nil), good.Data...)
	binary.LittleEndian.PutUint32(prefixLie, uint32(planeLen+1))
	hugePrefix := append([]byte(nil), good.Data...)
	binary.LittleEndian.PutUint32(hugePrefix, math.MaxUint32)

	cases := []struct {
		name  string
		elems int
		data  []byte
	}{
		{"no prefix", len(v), good.Data[:3]},
		{"truncated payload", len(v), good.Data[:len(good.Data)-1]},
		{"truncated plane", len(v), reframe(plane[:planeLen-2], rem)},
		{"short remainder", len(v), reframe(plane, rem[:len(rem)-3])},
		{"long remainder", len(v), reframe(plane, append(append([]byte(nil), rem...), 0, 0, 0))},
		{"trailing bytes in plane", len(v), reframe(append(append([]byte(nil), plane...), 0xAA), rem)},
		{"plane inflates short", len(v), reframe(stdDeflate(exp[:len(exp)-1]), rem)},
		{"plane inflates long", len(v), reframe(stdDeflate(append(exp, 0x7f)), rem)},
		{"plane is not deflate", len(v), reframe(bytes.Repeat([]byte{0xff}, planeLen), rem)},
		{"prefix claims remainder byte", len(v), prefixLie},
		{"prefix exceeds payload", len(v), hugePrefix},
		{"elems too large", len(v) + 1, good.Data},
		{"elems too small", len(v) - 1, good.Data},
		{"elems huge", MaxPayloadElems, good.Data},
	}
	// Streams outside the literal-only shape, or not deflate at all, each
	// aimed at one of the inflater's rejection paths (hostilePlanes).
	for _, h := range hostilePlanes() {
		cases = append(cases, struct {
			name  string
			elems int
			data  []byte
		}{h.name, h.elems, reframe(h.stream, make([]byte, 3*h.elems))})
	}
	for _, tc := range cases {
		dec, err := FlateCodec{}.Decode(EncodedPayload{CodecID: CodecFlate, Elems: tc.elems, Data: tc.data})
		if err == nil {
			t.Errorf("%s: decoded %d elems, want an error", tc.name, len(dec))
		}
	}
	if _, err := (FlateCodec{}).Decode(good); err != nil {
		t.Fatalf("control payload rejected: %v", err)
	}
}

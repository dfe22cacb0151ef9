package link

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"

	"photon/internal/tensor"
)

// EncodedPayload is a wire codec's native representation of a parameter
// vector: the codec that produced it, the logical element count of the
// decoded vector, and the codec-native bytes that actually cross the wire.
// The zero value is the canonical empty payload (control messages carry it).
type EncodedPayload struct {
	// CodecID identifies the producing codec on the wire (CodecDense,
	// CodecFlate, ... or a registered custom codec's derived ID).
	CodecID uint8
	// Elems is the decoded vector's length.
	Elems int
	// Data is the codec-native byte representation.
	Data []byte
}

// IsZero reports whether the payload is empty (no parameters carried).
func (p EncodedPayload) IsZero() bool { return p.Elems == 0 && len(p.Data) == 0 }

// WireBytes returns the number of payload bytes that cross the wire.
func (p EncodedPayload) WireBytes() int { return len(p.Data) }

// Codec converts between float32 parameter vectors and their wire-native
// encoded form. Encode and Decode must round-trip the element count exactly;
// lossy codecs (q8, topk) may perturb values. A codec instance may carry
// per-session state (the topk codec accumulates an error-feedback residual
// across Encode calls), so every connection/session uses its own instance.
type Codec interface {
	// Encode converts v to its wire representation. Implementations may
	// leave CodecID zero; EncodeVector stamps the registered ID.
	Encode(v []float32) (EncodedPayload, error)
	// Decode reverses Encode. It must validate the payload's internal
	// consistency and reject malformed data with an error rather than
	// panicking; it allocates the Elems-sized output, so callers handling
	// untrusted input validate Elems against the expected vector length
	// before invoking it (the fed layer does on every network path).
	// Decode must be stateless with respect to the instance and safe for
	// concurrent use; per-session encode state (error-feedback residuals)
	// is fine.
	Decode(p EncodedPayload) ([]float32, error)
	// Name identifies the codec family ("dense", "q8", ...).
	Name() string
}

// Parameterized is implemented by codecs that accept a configuration
// argument in their wire name ("topk:0.05", "q8:128"). NewCodec calls
// Configure with the text after the colon.
type Parameterized interface {
	Configure(param string) error
}

// StatefulCodec is implemented by codecs whose encoder carries per-session
// state worth persisting — the topk codec's error-feedback residual. The
// durable control plane snapshots this state into its WAL so a restarted
// relay's uplink resumes with the residual it crashed with: coordinates
// dropped before the crash are still delivered in later rounds instead of
// being silently lost.
type StatefulCodec interface {
	// StateSnapshot returns a copy of the encoder state (nil when the
	// codec has not encoded yet).
	StateSnapshot() []float32
	// StateRestore replaces the encoder state with a copy of s. A nil or
	// empty s resets to the fresh-codec state.
	StateRestore(s []float32) error
}

// CodecState snapshots c's encoder state, or nil for stateless codecs.
func CodecState(c Codec) []float32 {
	if sc, ok := c.(StatefulCodec); ok {
		return sc.StateSnapshot()
	}
	return nil
}

// RestoreCodecState restores a snapshot taken by CodecState; a no-op (and
// nil error) for stateless codecs.
func RestoreCodecState(c Codec, s []float32) error {
	if sc, ok := c.(StatefulCodec); ok && len(s) > 0 {
		return sc.StateRestore(s)
	}
	return nil
}

// updateOnly is implemented by codecs that are only meaningful for sparse
// or residual-corrected update vectors, never for full model broadcasts.
type updateOnly interface {
	UpdateOnly() bool
}

// IsUpdateOnly reports whether c refuses full-model broadcasts (topk: a
// model with 90% of its weights dropped is not a model). Model frames for
// such codecs fall back to the lossless flate codec — see ModelCodec.
func IsUpdateOnly(c Codec) bool {
	u, ok := c.(updateOnly)
	return ok && u.UpdateOnly()
}

// ModelCodec returns the codec to use for full-model broadcasts under a
// negotiated session codec: c itself, unless c is update-only, in which
// case the lossless flate codec stands in. When that is dense or flate
// (CanDelta), a member holding the previous broadcast may be sent the next
// as a delta against it instead, its changed values in this codec.
func ModelCodec(c Codec) Codec {
	if IsUpdateOnly(c) {
		return FlateCodec{}
	}
	return c
}

// Built-in codec wire IDs. ID 0 is reserved for the empty payload; custom
// codecs registered via RegisterCodec get a stable name-derived ID in
// [customIDBase, 255].
const (
	CodecDense uint8 = 1
	CodecFlate uint8 = 2
	CodecQ8    uint8 = 3
	CodecTopK  uint8 = 4
	// CodecDelta marks a model encoded against one its receiver already
	// holds (EncodeDelta, ApplyDelta). It is not a negotiable codec: no
	// name maps to it.
	CodecDelta uint8 = 5
	// CodecSparse marks a top-k update in the sparse layout deltas use
	// (TopKCodec). No name maps to it either.
	CodecSparse uint8 = 6

	customIDBase = 16
)

// ---- registry ----

var (
	codecMu        sync.RWMutex
	codecFactories = map[string]func() Codec{}
	codecIDByName  = map[string]uint8{}
	codecNameByID  = map[uint8]string{}
)

func init() {
	registerCodecWithID("dense", CodecDense, func() Codec { return DenseCodec{} })
	registerCodecWithID("flate", CodecFlate, func() Codec { return FlateCodec{} })
	registerCodecWithID("q8", CodecQ8, func() Codec { return &Q8Codec{} })
	registerCodecWithID("topk", CodecTopK, func() Codec { return &TopKCodec{} })
}

func registerCodecWithID(name string, id uint8, factory func() Codec) {
	codecFactories[name] = factory
	codecIDByName[name] = id
	codecNameByID[id] = name
}

// RegisterCodec makes a wire codec available under name (negotiated at join
// time, selected via the Job API's WithCodec). The factory is invoked once
// per connection/session so stateful codecs (error feedback) stay
// per-client. The codec's wire ID is derived deterministically from the
// name, so independently started aggregators and clients agree on it; a
// hash collision with a previously registered codec panics with instructions
// to rename. Registering an existing name replaces its factory (the wire ID
// is kept). The built-ins "dense", "flate", "q8", and "topk" are
// pre-registered on fixed IDs.
func RegisterCodec(name string, factory func() Codec) {
	if name == "" || factory == nil {
		panic("link: RegisterCodec requires a name and a factory")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, ok := codecIDByName[name]; ok {
		codecFactories[name] = factory // re-registration keeps the wire ID
		return
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	id := customIDBase + uint8(h.Sum32()%(256-customIDBase))
	if holder, taken := codecNameByID[id]; taken {
		panic(fmt.Sprintf("link: codec %q wire id %d collides with %q; rename one of them", name, id, holder))
	}
	registerCodecWithID(name, id, factory)
}

// Codecs lists the registered codec names, sorted.
func Codecs() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	names := make([]string, 0, len(codecFactories))
	for n := range codecFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// baseCodecName strips an optional ":param" suffix from a codec name.
func baseCodecName(name string) (base, param string, hasParam bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i], name[i+1:], true
		}
	}
	return name, "", false
}

// NewCodec instantiates a fresh codec by name. Names may carry a
// configuration parameter after a colon — "topk:0.05" keeps 5% of
// coordinates, "q8:128" quantizes in blocks of 128 — when the codec
// implements Parameterized.
func NewCodec(name string) (Codec, error) {
	base, param, hasParam := baseCodecName(name)
	codecMu.RLock()
	factory, ok := codecFactories[base]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("link: unknown codec %q (registered: %v)", name, Codecs())
	}
	c := factory()
	if hasParam {
		p, ok := c.(Parameterized)
		if !ok {
			return nil, fmt.Errorf("link: codec %q takes no parameter (got %q)", base, name)
		}
		if err := p.Configure(param); err != nil {
			return nil, fmt.Errorf("link: codec %q: %w", name, err)
		}
	}
	return c, nil
}

// CodecWireID resolves a (possibly parameterized) codec name to its wire ID,
// or 0 when the name is unknown.
func CodecWireID(name string) uint8 {
	base, _, _ := baseCodecName(name)
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecIDByName[base]
}

// CodecNameByID resolves a wire ID to its registered codec name, or "".
func CodecNameByID(id uint8) string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecNameByID[id]
}

// EncodeVector encodes v with c and stamps the codec's registered wire ID
// when the codec left it unset. Every producer of Message.Payload goes
// through here so frames always carry a resolvable codec ID.
func EncodeVector(c Codec, v []float32) (EncodedPayload, error) {
	p, err := c.Encode(v)
	if err != nil {
		return EncodedPayload{}, fmt.Errorf("link: codec %s encode: %w", c.Name(), err)
	}
	if p.CodecID == 0 && !p.IsZero() {
		if p.CodecID = CodecWireID(c.Name()); p.CodecID == 0 {
			return EncodedPayload{}, fmt.Errorf("link: codec %q is not registered; RegisterCodec it before use", c.Name())
		}
	}
	return p, nil
}

// DecodePayload decodes a received payload inside a negotiated session:
// frames produced by the session codec decode through the (possibly
// stateful) session instance, the lossless built-ins dense and flate are
// always accepted (the model-broadcast fallback for update-only codecs,
// flate's own dense fallback for vectors it cannot shrink, and payloads built
// with Dense), a sparse top-k update decodes only in a topk session, a delta
// is refused with ErrDeltaNeedsBase (only ApplyDelta, given the model it was
// encoded against, decodes one), and anything else is a codec mismatch — the
// fail-fast half of the join-time negotiation, catching a peer that changed
// codecs mid-stream.
func DecodePayload(session Codec, p EncodedPayload) ([]float32, error) {
	if p.IsZero() {
		return nil, nil
	}
	_, topk := session.(*TopKCodec)
	if session != nil && p.CodecID == CodecWireID(session.Name()) || topk && p.CodecID == CodecSparse {
		return session.Decode(p)
	}
	switch p.CodecID {
	case CodecDense:
		return DenseCodec{}.Decode(p)
	case CodecFlate:
		return FlateCodec{}.Decode(p)
	case CodecDelta:
		return nil, ErrDeltaNeedsBase
	}
	got := CodecNameByID(p.CodecID)
	if got == "" {
		got = fmt.Sprintf("id %d", p.CodecID)
	}
	want := "dense"
	if session != nil {
		want = session.Name()
	}
	return nil, fmt.Errorf("link: payload codec mismatch: frame carries %s, session negotiated %s", got, want)
}

// Dense wraps v in the dense codec's encoding. It never fails and is the
// natural way to build payloads outside a negotiated session (tests,
// hand-rolled protocol drivers).
func Dense(v []float32) EncodedPayload {
	p, _ := DenseCodec{}.Encode(v)
	return p
}

// ---- dense ----

// DenseCodec is the identity codec: 4 bytes per element, lossless.
type DenseCodec struct{}

// Name implements Codec.
func (DenseCodec) Name() string { return "dense" }

// Encode implements Codec. Codec entry points are per-round wire
// boundaries: payload buffers escape to the transport, so they allocate by
// design and the tight per-element loops underneath them are the hotpath.
//
//photon:allocok
func (DenseCodec) Encode(v []float32) (EncodedPayload, error) {
	if len(v) == 0 {
		return EncodedPayload{}, nil
	}
	return EncodedPayload{CodecID: CodecDense, Elems: len(v), Data: payloadBytes(v)}, nil
}

// Decode implements Codec.
//
//photon:allocok
func (DenseCodec) Decode(p EncodedPayload) ([]float32, error) {
	if p.IsZero() {
		return nil, nil
	}
	if len(p.Data) != p.Elems*4 {
		return nil, fmt.Errorf("link: dense payload %d bytes for %d elems", len(p.Data), p.Elems)
	}
	return floatsFromBytes(p.Data), nil
}

// ---- flate ----

// FlateCodec is byte-plane flate: each float32 is split into its exponent
// byte and a 3-byte sign+mantissa remainder. Trained weights and updates
// cluster in a few dozen binades, so the exponent plane Huffman-codes to
// about a quarter of its size, while the mantissa bits are noise no
// entropy coder shrinks — they are stored raw instead of being dragged
// through an LZ77 matcher. Whichever of this form and the dense one is
// smaller is kept, so the codec never grows the wire. Lossless for every bit
// pattern (NaN payloads, ±Inf, denormals, −0).
//
// Layout: u32 planeLen | planeLen bytes of Huffman-only deflate (inflating
// to Elems exponent bytes) | 3·Elems remainder bytes (little-endian
// sign<<23|mantissa).
type FlateCodec struct{}

// Name implements Codec.
func (FlateCodec) Name() string { return "flate" }

// Encode implements Codec.
//
//photon:allocok
func (FlateCodec) Encode(v []float32) (EncodedPayload, error) {
	n := len(v)
	if n < 4 {
		// Shorter than the plane-length prefix alone: dense always wins.
		return DenseCodec{}.Encode(v)
	}
	// One dense-sized buffer serves both outcomes. The remainder goes to its
	// last 3n bytes while the blocks are built, and the plane and its length
	// prefix are stitched in right in front of it, so the payload is the
	// buffer's tail; a plane that does not fit in front is the dense
	// fallback anyway.
	out := make([]byte, 4*n)
	blocks, planeLen := deflatePlane(v, out[n:], make([]byte, scratchLen(n)))
	start := n - 4 - planeLen
	if start <= 0 {
		tensor.PutLE(out, v)
		return EncodedPayload{CodecID: CodecDense, Elems: n, Data: out}, nil
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(planeLen))
	stitch(out[start+4:n], blocks, v)
	return EncodedPayload{CodecID: CodecFlate, Elems: n, Data: out[start:]}, nil
}

// Decode implements Codec. Every length is checked against Elems before
// anything is allocated for it: the plane must inflate to exactly Elems
// bytes with nothing left over, the remainder must be exactly 3·Elems.
//
//photon:allocok
func (FlateCodec) Decode(p EncodedPayload) ([]float32, error) {
	if p.IsZero() {
		return nil, nil
	}
	if p.CodecID == CodecDense {
		return DenseCodec{}.Decode(p)
	}
	n := p.Elems
	if len(p.Data) < 4 {
		return nil, fmt.Errorf("link: flate payload truncated (%d bytes)", len(p.Data))
	}
	planeLen := int(binary.LittleEndian.Uint32(p.Data))
	if rem := len(p.Data) - 4 - planeLen; rem != 3*n {
		return nil, fmt.Errorf("link: flate payload has %d remainder bytes after a %d-byte plane for %d elems (want %d)", rem, planeLen, n, 3*n)
	}
	out := make([]float32, n)
	if err := inflatePlane(out, p.Data[4:4+planeLen], p.Data[4+planeLen:]); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- q8 ----

// Q8Codec transmits int8 block-quantized values: one signed byte per
// element plus one float32 absmax scale per block — ~1.016 bytes/element at
// the default block size of 256, a 3.9x wire reduction. Lossy: the
// per-coordinate error is bounded by half a quantization step
// (blockAbsMax/254). Safe for both update and full-model payloads.
type Q8Codec struct {
	BlockSize int // 0 → 256
}

// Name implements Codec.
func (*Q8Codec) Name() string { return "q8" }

// Configure implements Parameterized: "q8:<blockSize>".
func (q *Q8Codec) Configure(param string) error {
	bs, err := strconv.Atoi(param)
	if err != nil || bs < 1 {
		return fmt.Errorf("block size %q must be a positive integer", param)
	}
	q.BlockSize = bs
	return nil
}

func (q *Q8Codec) blockSize() int {
	if q.BlockSize <= 0 {
		return 256
	}
	return q.BlockSize
}

// Encode implements Codec. Layout: u32 blockSize | nBlocks×f32 scales |
// elems×int8 codes.
//
//photon:allocok
func (q *Q8Codec) Encode(v []float32) (EncodedPayload, error) {
	if len(v) == 0 {
		return EncodedPayload{}, nil
	}
	bs := q.blockSize()
	codes, scales, err := QuantizeInt8(v, bs)
	if err != nil {
		return EncodedPayload{}, err
	}
	data := make([]byte, 4+4*len(scales)+len(codes))
	binary.LittleEndian.PutUint32(data, uint32(bs))
	packQ8(data[4:], scales, codes)
	return EncodedPayload{CodecID: CodecQ8, Elems: len(v), Data: data}, nil
}

// Decode implements Codec.
//
//photon:allocok
func (q *Q8Codec) Decode(p EncodedPayload) ([]float32, error) {
	if p.IsZero() {
		return nil, nil
	}
	if len(p.Data) < 4 {
		return nil, fmt.Errorf("link: q8 payload truncated (%d bytes)", len(p.Data))
	}
	bs := int(binary.LittleEndian.Uint32(p.Data))
	if bs < 1 || bs > MaxPayloadElems {
		return nil, fmt.Errorf("link: q8 block size %d out of range", bs)
	}
	nBlocks := (p.Elems + bs - 1) / bs
	want := 4 + 4*nBlocks + p.Elems
	if len(p.Data) != want {
		return nil, fmt.Errorf("link: q8 payload %d bytes for %d elems at block %d (want %d)", len(p.Data), p.Elems, bs, want)
	}
	scales := make([]float32, nBlocks)
	codes := make([]int8, p.Elems)
	unpackQ8(p.Data[4:], scales, codes)
	return DequantizeInt8(codes, scales, bs)
}

// QuantizeInt8 quantizes v into int8 codes with one float32 scale per block
// of blockSize elements (absmax scaling), the lossy wire format the
// cross-device extension of Section 6 calls for. It returns the codes and
// per-block scales. Validation and output allocation live here; the
// per-element sweep is the hotpath kernel quantizeBlocks.
//
//photon:allocok
func QuantizeInt8(v []float32, blockSize int) (codes []int8, scales []float32, err error) {
	if blockSize < 1 {
		return nil, nil, fmt.Errorf("link: blockSize must be positive, got %d", blockSize)
	}
	codes = make([]int8, len(v))
	scales = make([]float32, (len(v)+blockSize-1)/blockSize)
	quantizeBlocks(codes, scales, v, blockSize)
	return codes, scales, nil
}

// quantizeBlocks is the absmax int8 quantization sweep over preallocated
// code/scale buffers — the tight loop every lossy encode pays per element.
//
//photon:hotpath
func quantizeBlocks(codes []int8, scales []float32, v []float32, blockSize int) {
	for b := range scales {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > len(v) {
			hi = len(v)
		}
		var maxAbs float32
		for _, x := range v[lo:hi] {
			a := x
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		scales[b] = scale
		if scale == 0 {
			continue
		}
		for i := lo; i < hi; i++ {
			q := math.Round(float64(v[i] / scale))
			if q > 127 {
				q = 127
			}
			if q < -127 {
				q = -127
			}
			codes[i] = int8(q)
		}
	}
}

// DequantizeInt8 reverses QuantizeInt8.
//
//photon:allocok
func DequantizeInt8(codes []int8, scales []float32, blockSize int) ([]float32, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("link: blockSize must be positive, got %d", blockSize)
	}
	want := (len(codes) + blockSize - 1) / blockSize
	if len(scales) != want {
		return nil, fmt.Errorf("link: %d scales for %d codes at block %d (want %d)",
			len(scales), len(codes), blockSize, want)
	}
	out := make([]float32, len(codes))
	dequantizeInto(out, codes, scales, blockSize)
	return out, nil
}

// dequantizeInto is DequantizeInt8's per-element sweep over a preallocated
// output.
//
//photon:hotpath
func dequantizeInto(out []float32, codes []int8, scales []float32, blockSize int) {
	for i, c := range codes {
		out[i] = float32(c) * scales[i/blockSize]
	}
}

// ---- topk ----

// TopKCodec transmits only the Keep-fraction of largest-magnitude
// coordinates: a bitmap of them and their values under flate, or (index,
// value) pairs when no larger — ~0.44 bytes/element at 10% density. Dropped
// coordinates accumulate in a client-side error-feedback residual that is
// added to the next Encode, so sparsification delays rather than discards
// small updates. The residual lives in the codec instance: one instance per
// client session, reused across reconnects. Update-only — model broadcasts
// under a topk session use the flate fallback (see ModelCodec).
type TopKCodec struct {
	Keep float64 // fraction of coordinates kept; 0 → 0.1

	residual []float32

	// Encode's scratch, kept across calls (Encode is the session's alone;
	// Decode uses none of it): the sample's keys, the bitmaps of the sums
	// above the bracket and within it, the candidates' keys, the selection's
	// counters, and the payload's bitmap and values.
	sample, keys  []uint32
	above, within []uint64
	hist          []uint32
	bitmap        []byte
	vals          []float32
}

// Name implements Codec.
func (*TopKCodec) Name() string { return "topk" }

// UpdateOnly marks the codec unusable for full-model broadcasts.
func (*TopKCodec) UpdateOnly() bool { return true }

// Configure implements Parameterized: "topk:<keepFraction>".
func (t *TopKCodec) Configure(param string) error {
	keep, err := strconv.ParseFloat(param, 64)
	if err != nil || keep <= 0 || keep > 1 {
		return fmt.Errorf("keep fraction %q must be in (0,1]", param)
	}
	t.Keep = keep
	return nil
}

// StateSnapshot implements StatefulCodec: a copy of the error-feedback
// residual accumulated so far.
func (t *TopKCodec) StateSnapshot() []float32 {
	if t.residual == nil {
		return nil
	}
	return append([]float32(nil), t.residual...)
}

// StateRestore implements StatefulCodec.
func (t *TopKCodec) StateRestore(s []float32) error {
	if len(s) == 0 {
		t.residual = nil
		return nil
	}
	if t.residual != nil && len(t.residual) != len(s) {
		return fmt.Errorf("residual size changed: %d vs snapshot %d", len(t.residual), len(s))
	}
	t.residual = append([]float32(nil), s...)
	return nil
}

func (t *TopKCodec) keep() float64 {
	if t.Keep == 0 {
		return 0.1
	}
	return t.Keep
}

// Encode implements Codec. Layout: a CodecSparse payload (sparsePayload),
// or kept-count×(u32 index | f32 value) as CodecTopK when no larger.
//
// The update is folded into the residual in place and the payload is
// emitted from it. A float's magnitude read as the integer bits&0x7fffffff
// (its key) sorts exactly like |x|, so selection counts keys. A strided
// sample of the sums brackets the k-th largest key; one vector pass
// (tensor.FoldMarks) folds the update and marks the keys above the bracket
// and within it; a radix select over the candidates within it pins the k-th
// largest key exactly; one pass over the marks emits. A bracket that turns
// out not to hold the k-th largest makes every element a candidate: the
// bracket decides the time Encode takes, never its bytes.
//
//photon:allocok
func (t *TopKCodec) Encode(v []float32) (EncodedPayload, error) {
	keep := t.keep()
	if keep <= 0 || keep > 1 {
		return EncodedPayload{}, fmt.Errorf("keep fraction %v out of (0,1]", keep)
	}
	if len(v) == 0 {
		return EncodedPayload{}, nil
	}
	if t.residual == nil {
		t.residual = make([]float32, len(v))
	}
	if len(t.residual) != len(v) {
		return EncodedPayload{}, fmt.Errorf("update size changed: %d vs residual %d", len(v), len(t.residual))
	}
	n := len(v)
	k := int(math.Ceil(keep * float64(n)))
	if k > n {
		k = n
	}
	words := (n + 63) / 64
	if len(t.above) != words || len(t.vals) != k {
		t.sample = make([]uint32, (n+sampleStride(n)-1)/sampleStride(n))
		t.above, t.within = make([]uint64, words), make([]uint64, words)
		t.bitmap, t.vals = make([]byte, 8*words), make([]float32, k)
		t.hist = make([]uint32, 1<<16)
	}
	lo, hi := t.bracket(v, k)
	above, within := tensor.FoldMarks(t.residual, v, lo, hi, t.above, t.within)
	if above > k || above+within < k {
		// The k-th largest lies outside the bracket: select over everything.
		clear(t.above)
		for i := range t.within {
			t.within[i] = math.MaxUint64
		}
		if n%64 != 0 {
			t.within[words-1] = 1<<(n%64) - 1
		}
		lo, hi, above, within = 0, math.MaxInt32, 0, n
	}
	if cap(t.keys) < within {
		t.keys = make([]uint32, within)
	}
	t.keys = t.keys[:within]
	candidateKeys(t.keys, t.within, t.residual)
	thresh, ties := selectKey(t.keys, lo, hi, k, above, t.hist)
	emitTopK(t.bitmap, t.vals, t.residual, t.above, t.within, t.keys, thresh, ties)
	if p, ok, err := sparsePayload(CodecSparse, ModelCodec(t), n, t.bitmap, t.vals, 8*k); ok || err != nil {
		return p, err
	}
	return EncodedPayload{CodecID: CodecTopK, Elems: n, Data: pairs(t.bitmap, t.vals)}, nil
}

// topkSample is about how many sums bracket draws, and topkSigmas how many
// standard deviations of the sample's rank error either side of the k-th
// largest's expected rank its bracket spans. A larger sample narrows the
// bracket, but its two quickselects cost more than the candidates it saves.
const (
	topkSample = 1 << 12
	topkSigmas = 4
)

// sampleStride is bracket's stride over n sums: about n/topkSample, and
// odd, so that it walks every column of a power-of-two-wide tensor.
//
//photon:hotpath
func sampleStride(n int) int { return n/topkSample | 1 }

// bracket samples the sums v + residual at sampleStride into t.sample and
// returns the sample keys topkSigmas standard deviations either side of
// where the k-th largest of all n would rank in the sample: a bracket
// [lo, hi] that holds the k-th largest key unless the sample misleads. Past
// either end of the sample the bound is the end of the key range.
//
//photon:hotpath
func (t *TopKCodec) bracket(v []float32, k int) (lo, hi uint32) {
	n, stride, s := len(v), sampleStride(len(v)), t.sample
	for j := range s {
		s[j] = magKey(v[j*stride] + t.residual[j*stride])
	}
	m := len(s)
	p := float64(k) / float64(n)
	q, d := p*float64(m), topkSigmas*math.Sqrt(float64(m)*p*(1-p))+1
	// Descending sample ranks rHi < rLo; ascending, those are m−1−r. The
	// upper bound is selected first, so that the lower one is selected among
	// the keys below it.
	lo, hi = 0, math.MaxInt32
	rHi, rLo := int(math.Floor(q-d)), int(math.Ceil(q+d))
	top := m
	if rHi >= 0 {
		top = m - 1 - rHi
		hi = nthKey(s, top)
	}
	if rLo < m {
		lo = nthKey(s[:top], m-1-rLo)
	}
	return lo, hi
}

// nthKey returns the key of ascending rank r in s, reordering s so that no
// key before r is larger and none after it smaller (quickselect, with
// Hoare's partition around a median of three).
//
//photon:hotpath
func nthKey(s []uint32, r int) uint32 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi]
		p := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case r <= j:
			hi = j
		case r >= i:
			lo = i
		default:
			return s[r]
		}
	}
	return s[r]
}

// magKey is |x| as an integer that orders like the magnitude (sign bit
// cleared; IEEE-754 magnitudes are monotone in their bit pattern).
//
//photon:hotpath
func magKey(x float32) uint32 { return math.Float32bits(x) & 0x7fffffff }

// candidateKeys writes to keys the keys of the residual's elements that
// within marks, in index order; keys holds exactly as many.
//
//photon:hotpath
func candidateKeys(keys []uint32, within []uint64, residual []float32) {
	j := 0
	for w, word := range within {
		for ; word != 0; word &= word - 1 {
			keys[j] = magKey(residual[64*w+bits.TrailingZeros64(word)])
			j++
		}
	}
}

// selectKey returns the k-th largest of keys, which lie in [lo, hi], and of
// above larger elements that are not among them — above ≤ k ≤
// above+len(keys) — and how many elements at exactly that key still fit in
// k. It counts key − lo in two passes, as a radix select: its high bits
// (16 of them at most), then, unless those were all of them, its low bits
// inside the boundary bucket. hist holds 1<<16 counters. Given above == k it
// keeps no candidate: it returns a key no smaller than hi with no ties left.
//
//photon:hotpath
func selectKey(keys []uint32, lo, hi uint32, k, above int, hist []uint32) (thresh uint32, ties int) {
	shift := max(bits.Len32(hi-lo)-16, 0)
	counts := hist[:(hi-lo)>>shift+1]
	clear(counts)
	for _, key := range keys {
		counts[(key-lo)>>shift]++
	}
	b, above := kthBucket(counts, above, k)
	if shift == 0 {
		return lo + b, k - above
	}
	// Same again on the low bits of that bucket's members.
	counts = hist[:1<<shift]
	clear(counts)
	low := uint32(1)<<shift - 1
	for _, key := range keys {
		if (key-lo)>>shift == b {
			counts[(key-lo)&low]++
		}
	}
	l, above := kthBucket(counts, above, k)
	return lo + (b<<shift | l), k - above
}

// kthBucket walks counts down from the largest bucket to the one holding
// the k-th largest element, given that above elements rank higher than every
// bucket; it returns that bucket and the number ranking strictly above it.
//
//photon:hotpath
func kthBucket(counts []uint32, above, k int) (uint32, int) {
	b := len(counts) - 1
	for ; above+int(counts[b]) < k; b-- {
		above += int(counts[b])
	}
	return uint32(b), above
}

// emitTopK writes the kept coordinates' bitmap, gathers their values into
// vals in index order and zeroes their residual, one word at a time. Every
// element above the bracket is kept, and of the candidates within it (keys,
// in index order) those above the threshold; only ties at exactly the
// threshold compete, in index order, for the rest of the slots — so density
// stays exact even for heavily quantized magnitudes without ever dropping a
// larger coordinate in favor of an earlier tie.
//
//photon:hotpath
func emitTopK(bitmap []byte, vals, residual []float32, above, within []uint64, keys []uint32, thresh uint32, ties int) {
	j, k := 0, 0
	for w, kept := range above {
		for word := within[w]; word != 0; word &= word - 1 {
			// Branch-free, as the candidates straddle the threshold: each
			// test is the sign bit of a 64-bit difference.
			key := uint64(keys[j])
			j++
			gt := (uint64(thresh) - key) >> 63       // key > thresh
			eq := ((key ^ uint64(thresh)) - 1) >> 63 // key == thresh
			tie := eq & (uint64(-ties) >> 63)        // … with a slot left
			ties -= int(tie)
			kept |= word & -word & -(gt | tie)
		}
		binary.LittleEndian.PutUint64(bitmap[8*w:], kept)
		base := residual[64*w : min(64*w+64, len(residual))]
		for ; kept != 0; kept &= kept - 1 {
			i := bits.TrailingZeros64(kept)
			vals[k] = base[i]
			k++
			base[i] = 0
		}
	}
}

// pairs writes the (u32 index | f32 value) form of the values bitmap marks.
//
//photon:allocok
func pairs(bitmap []byte, vals []float32) []byte {
	data := make([]byte, 8*len(vals))
	k := 0
	for i := 0; i < len(bitmap); i += 8 {
		for word := binary.LittleEndian.Uint64(bitmap[i:]); word != 0; word &= word - 1 {
			binary.LittleEndian.PutUint32(data[8*k:], uint32(8*i+bits.TrailingZeros64(word)))
			binary.LittleEndian.PutUint32(data[8*k+4:], math.Float32bits(vals[k]))
			k++
		}
	}
	return data
}

// Decode implements Codec: scatter the kept values into a zero vector. A
// CodecSparse payload is checked as ApplyDelta checks a delta (applySparse).
// In a CodecTopK one, indices must be strictly increasing, as Encode writes
// them: a repeated index would carry fewer coordinates than the pair count
// the wire accounting charges.
//
//photon:allocok
func (t *TopKCodec) Decode(p EncodedPayload) ([]float32, error) {
	if p.IsZero() {
		return nil, nil
	}
	if p.CodecID == CodecSparse {
		return applySparse(nil, p)
	}
	if len(p.Data)%8 != 0 {
		return nil, fmt.Errorf("link: topk payload %d bytes is not a pair multiple", len(p.Data))
	}
	pairs := len(p.Data) / 8
	if pairs > p.Elems {
		return nil, fmt.Errorf("link: topk payload carries %d pairs for %d elems", pairs, p.Elems)
	}
	out := make([]float32, p.Elems)
	next := 0 // the smallest index the next pair may carry
	for i := 0; i < pairs; i++ {
		idx := int(binary.LittleEndian.Uint32(p.Data[8*i:]))
		if idx < next || idx >= p.Elems {
			return nil, fmt.Errorf("link: topk pair %d has index %d, want one in [%d,%d)", i, idx, next, p.Elems)
		}
		out[idx] = math.Float32frombits(binary.LittleEndian.Uint32(p.Data[8*i+4:]))
		next = idx + 1
	}
	return out, nil
}

// floatsFromBytes converts little-endian float32 bytes back to a vector.
//
//photon:allocok
func floatsFromBytes(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	tensor.GetLE(out, raw)
	return out
}

// packQ8 writes the q8 wire body (scales then codes) into a preallocated
// buffer starting at the scale section; unpackQ8 is its inverse.
//
//photon:hotpath
func packQ8(body []byte, scales []float32, codes []int8) {
	for i, s := range scales {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(s))
	}
	off := 4 * len(scales)
	for i, c := range codes {
		body[off+i] = byte(c)
	}
}

//photon:hotpath
func unpackQ8(body []byte, scales []float32, codes []int8) {
	for i := range scales {
		scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	off := 4 * len(scales)
	for i := range codes {
		codes[i] = int8(body[off+i])
	}
}

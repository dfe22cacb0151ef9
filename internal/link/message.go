// Package link is Photon's communication module: the gateway between the
// aggregator (Agg) and LLM clients (LLM-C).
//
// It provides a compact binary wire format with CRC-32 integrity checking
// whose parameter payloads are produced by pluggable wire codecs — dense
// float32, lossless flate, int8 block quantization, and error-feedback
// top-k sparsification ship built in, and RegisterCodec adds more — model
// broadcasts as deltas against the model a member holds, and stream
// transports over any net.Conn (in-process pipes and TCP). Frames carry the
// producing codec's ID next to the codec-native bytes, so lossy compression
// actually shrinks the wire instead of being simulated on dense floats.
package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"photon/internal/tensor"
)

// MsgType identifies the purpose of a message.
type MsgType uint8

// Message types exchanged between Agg and LLM-C.
const (
	// MsgJoin announces a client to the aggregator. Under codec
	// negotiation it acks the aggregator's MsgCodecAnnounce by echoing the
	// announced wire ID in Meta[CodecIDKey].
	MsgJoin MsgType = iota + 1
	// 2 is retired; the blank keeps every later type at its wire value.
	_
	// MsgModel carries global model parameters to a client.
	MsgModel
	// MsgUpdate carries a client's model update back to the aggregator.
	MsgUpdate
	// MsgMetrics carries training metadata without parameters.
	MsgMetrics
	// MsgShutdown ends a session.
	MsgShutdown
	// MsgHeartbeat is a liveness probe. The aggregator pings each member on
	// its heartbeat interval with a send-timestamp in Meta; the client
	// echoes the message back unchanged so the aggregator can record both
	// liveness and round-trip time. Heartbeats never carry parameters.
	MsgHeartbeat
	// MsgCodecAnnounce opens codec negotiation: the aggregator sends it
	// first on every fresh connection, carrying its configured codec name
	// in ClientID (the frame's only string field) and the codec's wire ID
	// in Meta[CodecIDKey]. The client verifies it can instantiate that
	// codec and acks by echoing the ID in its MsgJoin; any mismatch fails
	// the join fast with a clear error on the client side.
	MsgCodecAnnounce
	// MsgGenerate asks a photon-serve instance to continue a prompt. The
	// payload carries the prompt token ids as dense float32; sampling
	// options, the request id, and the deadline travel in Meta (key names
	// are owned by internal/serve).
	MsgGenerate
	// MsgScore asks a photon-serve instance for a continuation
	// log-probability. The payload carries prompt‖continuation token ids;
	// Meta carries the prompt length and request id.
	MsgScore
	// MsgServeResult answers a MsgGenerate (payload: sampled token ids) or
	// MsgScore (Meta: log-probability). Failures set an error string in
	// ClientID and a zero ok flag in Meta.
	MsgServeResult
	// MsgObserve subscribes a read-only observer (photon-top, dashboards)
	// to an aggregator's round event stream. An observer answers the
	// MsgCodecAnnounce handshake with MsgObserve instead of MsgJoin; it
	// never joins membership, receives no heartbeats, and is fed Meta-only
	// MsgMetrics frames after each round — codec-free, so any observer can
	// attach regardless of the fleet's wire codec.
	MsgObserve
)

// HeartbeatSentKey is the Meta key carrying the ping's send time in
// nanoseconds since the Unix epoch, echoed back by the receiver.
const HeartbeatSentKey = "hb_sent_ns"

// CodecIDKey is the Meta key carrying a codec wire ID during the join
// handshake (MsgCodecAnnounce announces it, MsgJoin echoes it back).
const CodecIDKey = "codec_id"

// CohortKey is the Meta key a relay stamps on its upstream MsgUpdate with
// the number of cohort updates folded into the payload. Its presence tells
// the parent aggregator that the member is itself an aggregation tier, so
// round records report Depth 2 instead of a flat cohort.
const CohortKey = "cohort"

// TraceKey is the Meta key carrying the round-scoped trace ID. The root
// aggregator mints one per round and stamps it on every MsgModel; members
// (and relays, downward to their own cohorts) propagate it and echo it on
// their MsgUpdate, so phase spans recorded anywhere in the tree attribute
// to the root round that caused them. Meta values are float64, so trace
// IDs are confined to 52 bits — they survive the float round-trip exactly.
const TraceKey = "trace_id"

// ResumeKey is the Meta key a WAL-resuming aggregator stamps (value 1) on
// the re-broadcast of a round that was in flight when it crashed, and an
// async aggregator on every dispatch (its round is the dispatched version
// + 1, so a re-sent version is a re-sent round). A member that already
// trained that round recognizes the marker plus the matching round number
// and re-sends its cached update instead of training again — re-training
// would double-advance its data stream and, under a lossy codec, re-apply
// the error-feedback residual. Fresh sync broadcasts never carry the key,
// so a genuinely new sync run that happens to reuse a round number is served
// normally.
const ResumeKey = "resume"

// VersionKey is the Meta key carrying a global-model version stamp. An
// async (FedBuff-mode) aggregator stamps the current model version on every
// MsgModel broadcast, whose round is that version + 1 (as a sync round r
// trains on what r−1 commits made), and keeps the version it sent with each
// dispatch, so it computes the answering update's staleness (current
// version minus the dispatched one) itself and down-weights late arrivals
// instead of dropping them. Members and relays record the stamp on their
// round telemetry. Meta values are float64, so versions — like trace IDs —
// are confined to 52 bits and survive the float round-trip exactly.
const VersionKey = "model_version"

// Delta broadcast keys. Every MsgUpdate carries HeldKey, the round of the
// model the member last decoded (0: none). A MsgModel whose payload is a
// delta against that model (CodecDelta) carries BaseRoundKey, the round it
// applies to, and ModelCRCKey, the Checksum of the model it rebuilds.
const (
	HeldKey      = "held_round"
	BaseRoundKey = "base_round"
	ModelCRCKey  = "model_crc"
)

// Per-phase self-report keys members stamp on MsgUpdate Meta, letting the
// aggregator split each member's round latency into local compute, codec
// work, and wire residual.
const (
	// PhaseTrainNsKey is the member's local-train wall time (for a relay:
	// its cohort-exchange wall time) in nanoseconds.
	PhaseTrainNsKey = "ph_train_ns"
	// PhaseEncNsKey is the member's update-encode wall time in nanoseconds.
	PhaseEncNsKey = "ph_enc_ns"
	// PhaseDecNsKey is the member's model-decode wall time in nanoseconds.
	PhaseDecNsKey = "ph_dec_ns"
)

// Message is the unit of communication. Payload carries model parameters or
// pseudo-gradients in their codec-encoded wire form; Meta carries scalar
// metadata (losses, step counts, instructions) keyed by name.
type Message struct {
	Type     MsgType
	Round    int32
	ClientID string
	Meta     map[string]float64
	Payload  EncodedPayload
}

const (
	magic = 0x50484F54 // "PHOT"
	// flagCodec marks the payload section layout: codec ID + element count
	// + codec-native bytes. Every frame sets it; bit 0 belonged to the
	// retired pre-codec format and stays unassigned.
	flagCodec   = 1 << 1
	maxIDLen    = 1 << 10
	maxMetaKeys = 1 << 12
	// MaxPayloadElems bounds a single message's parameter payload (1B
	// float32s ≈ 4 GB), protecting against corrupted length prefixes.
	MaxPayloadElems = 1 << 30
)

// Encode serializes the message to the wire format. The payload is written
// verbatim in its codec-encoded form; producers choose the codec via
// EncodeVector before building the message.
func Encode(w io.Writer, m *Message) error {
	if len(m.ClientID) > maxIDLen {
		return fmt.Errorf("link: client id too long (%d bytes)", len(m.ClientID))
	}
	if len(m.Meta) > maxMetaKeys {
		return fmt.Errorf("link: too many meta keys (%d)", len(m.Meta))
	}
	if m.Payload.Elems > MaxPayloadElems {
		return fmt.Errorf("link: payload too large (%d elems)", m.Payload.Elems)
	}
	if len(m.Payload.Data) > math.MaxUint32 {
		return fmt.Errorf("link: payload too large (%d bytes)", len(m.Payload.Data))
	}

	// The frame is written as two pieces — header plus everything up to the
	// payload bytes, then the payload bytes themselves — so a model-sized
	// payload is never staged through a second buffer; the CRC runs over
	// both in place.
	keys := sortedKeys(m.Meta)
	size := 12 + 2 + 4 + 4 + len(m.ClientID) + 4 + 1 + 4 + 4
	for _, k := range keys {
		size += 4 + len(k) + 8
	}
	le := binary.LittleEndian
	head := make([]byte, 12, size)
	head = append(head, byte(m.Type), flagCodec)
	head = le.AppendUint32(head, uint32(m.Round))
	head = le.AppendUint32(head, uint32(len(m.ClientID)))
	head = append(head, m.ClientID...)
	head = le.AppendUint32(head, uint32(len(m.Meta)))
	for _, k := range keys {
		head = le.AppendUint32(head, uint32(len(k)))
		head = append(head, k...)
		head = le.AppendUint64(head, math.Float64bits(m.Meta[k]))
	}
	head = append(head, m.Payload.CodecID)
	head = le.AppendUint32(head, uint32(m.Payload.Elems))
	head = le.AppendUint32(head, uint32(len(m.Payload.Data)))

	le.PutUint32(head[0:], magic)
	le.PutUint32(head[4:], uint32(len(head)-12+len(m.Payload.Data)))
	le.PutUint32(head[8:], crc32.Update(crc32.ChecksumIEEE(head[12:]), crc32.IEEETable, m.Payload.Data))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("link: write header: %w", err)
	}
	if len(m.Payload.Data) > 0 {
		if _, err := w.Write(m.Payload.Data); err != nil {
			return fmt.Errorf("link: write body: %w", err)
		}
	}
	return nil
}

// ErrBadFrame reports a corrupted or foreign frame on the wire.
var ErrBadFrame = errors.New("link: bad frame")

// bodyChunk is the most Decode allocates for a frame body before any of it
// has arrived; a frame within it takes one exact-size allocation.
const bodyChunk = 1 << 20

// Decode reads one message from the wire. The returned Payload.Data aliases
// the frame body Decode read and checksummed (one allocation for a body
// within bodyChunk, a doubling buffer beyond it; no second copy of the
// payload); the message owns it.
func Decode(r io.Reader) (*Message, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[4:])
	wantCRC := binary.LittleEndian.Uint32(hdr[8:])
	const maxBody = uint64(21 + maxIDLen + 24*maxMetaKeys + 8*MaxPayloadElems)
	if uint64(bodyLen) > maxBody {
		return nil, fmt.Errorf("%w: body length %d", ErrBadFrame, bodyLen)
	}
	// The body buffer grows with the bytes that arrive, never more than
	// bodyChunk or the bytes already read ahead of them: a peer that sends a
	// header alone cannot make Decode allocate the length it declares.
	body := make([]byte, min(int(bodyLen), bodyChunk))
	for filled := 0; ; {
		n, err := io.ReadFull(r, body[filled:])
		if filled += n; err == io.EOF && filled > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if filled == int(bodyLen) {
			break
		}
		body = append(body, make([]byte, min(int(bodyLen)-filled, filled))...)
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}

	b := bytes.NewReader(body)
	m := &Message{}
	t, err := b.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadFrame)
	}
	m.Type = MsgType(t)
	flags, err := b.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrBadFrame)
	}
	round, err := readU32(b)
	if err != nil {
		return nil, err
	}
	m.Round = int32(round)
	idLen, err := readU32(b)
	if err != nil {
		return nil, err
	}
	if idLen > maxIDLen {
		return nil, fmt.Errorf("%w: id length %d", ErrBadFrame, idLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(b, id); err != nil {
		return nil, fmt.Errorf("%w: truncated id", ErrBadFrame)
	}
	m.ClientID = string(id)
	nMeta, err := readU32(b)
	if err != nil {
		return nil, err
	}
	if nMeta > maxMetaKeys {
		return nil, fmt.Errorf("%w: meta count %d", ErrBadFrame, nMeta)
	}
	if nMeta > 0 {
		m.Meta = make(map[string]float64, nMeta)
	}
	var prev string
	for i := uint32(0); i < nMeta; i++ {
		kLen, err := readU32(b)
		if err != nil {
			return nil, err
		}
		if kLen > maxIDLen {
			return nil, fmt.Errorf("%w: meta key length %d", ErrBadFrame, kLen)
		}
		k := make([]byte, kLen)
		if _, err := io.ReadFull(b, k); err != nil {
			return nil, fmt.Errorf("%w: truncated meta", ErrBadFrame)
		}
		// Encode writes the keys sorted; a repeated or out-of-order key is
		// not a frame it produced, and decoding it would silently drop one.
		key := string(k)
		if i > 0 && key <= prev {
			return nil, fmt.Errorf("%w: meta key %q out of order", ErrBadFrame, key)
		}
		prev = key
		v, err := readU64(b)
		if err != nil {
			return nil, err
		}
		m.Meta[key] = math.Float64frombits(v)
	}

	if flags&flagCodec == 0 {
		return nil, fmt.Errorf("%w: pre-codec frame (flags %#x)", ErrBadFrame, flags)
	}
	if flags != flagCodec {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrBadFrame, flags)
	}
	codecID, err := b.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated codec id", ErrBadFrame)
	}
	nElems, err := readU32(b)
	if err != nil {
		return nil, err
	}
	if nElems > MaxPayloadElems {
		return nil, fmt.Errorf("%w: payload elems %d", ErrBadFrame, nElems)
	}
	nBytes, err := readU32(b)
	if err != nil {
		return nil, err
	}
	// The payload is exactly the rest of the frame: a length prefix that
	// claims more than is there, or leaves bytes over, is corrupted.
	if int64(nBytes) != int64(b.Len()) {
		return nil, fmt.Errorf("%w: payload length %d, frame holds %d", ErrBadFrame, nBytes, b.Len())
	}
	if nElems == 0 && nBytes == 0 {
		m.Payload.CodecID = codecID
		return m, nil // canonical empty payload
	}
	rest := body[len(body)-b.Len():]
	m.Payload = EncodedPayload{CodecID: codecID, Elems: int(nElems), Data: rest[:nBytes:nBytes]}
	return m, nil
}

//photon:allocok
func payloadBytes(p []float32) []byte {
	out := make([]byte, len(p)*4)
	tensor.PutLE(out, p)
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated u32", ErrBadFrame)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated u64", ErrBadFrame)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

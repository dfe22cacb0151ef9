package link

import (
	"testing"

	"photon/internal/ckpt"
)

// TestWireAndDiskIDsArePinned pins every numeric ID that crosses a wire or
// lands on disk: message types, WAL record types and built-in codec IDs. A
// retired ID is blanked in its iota block, never deleted, so the IDs after
// it keep their values and old frames and journals still decode.
func TestWireAndDiskIDsArePinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uint8
	}{
		{"MsgJoin", uint8(MsgJoin), 1},
		{"MsgModel", uint8(MsgModel), 3},
		{"MsgUpdate", uint8(MsgUpdate), 4},
		{"MsgMetrics", uint8(MsgMetrics), 5},
		{"MsgShutdown", uint8(MsgShutdown), 6},
		{"MsgHeartbeat", uint8(MsgHeartbeat), 7},
		{"MsgCodecAnnounce", uint8(MsgCodecAnnounce), 8},
		{"MsgGenerate", uint8(MsgGenerate), 9},
		{"MsgScore", uint8(MsgScore), 10},
		{"MsgServeResult", uint8(MsgServeResult), 11},
		{"MsgObserve", uint8(MsgObserve), 12},

		{"RecRoundOpen", uint8(ckpt.RecRoundOpen), 1},
		{"RecMemberUpdate", uint8(ckpt.RecMemberUpdate), 2},
		{"RecOuterStep", uint8(ckpt.RecOuterStep), 3},
		{"RecRoundCommit", uint8(ckpt.RecRoundCommit), 4},
		{"RecStateSnapshot", uint8(ckpt.RecStateSnapshot), 5},
		{"RecBufferFold", uint8(ckpt.RecBufferFold), 6},
		{"RecVersionCommit", uint8(ckpt.RecVersionCommit), 7},
		{"RecWALOpen", uint8(ckpt.RecWALOpen), 8},

		{"CodecDense", CodecDense, 1},
		{"CodecFlate", CodecFlate, 2},
		{"CodecQ8", CodecQ8, 3},
		{"CodecTopK", CodecTopK, 4},
		{"CodecDelta", CodecDelta, 5},
		{"CodecSparse", CodecSparse, 6},
		{`CodecWireID("dense")`, CodecWireID("dense"), 1},
		{`CodecWireID("flate")`, CodecWireID("flate"), 2},
		{`CodecWireID("q8")`, CodecWireID("q8"), 3},
		{`CodecWireID("topk:0.1")`, CodecWireID("topk:0.1"), 4},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestLEBothPaths holds PutLE and GetLE to binary.LittleEndian on the
// memory-copy path and on the element loop a big-endian host runs: the same
// bytes out and the same bits back, for NaN payloads (quiet and signalling,
// either sign), signed zeros, infinities, subnormals and normals.
func TestLEBothPaths(t *testing.T) {
	bits := []uint32{
		0x7fc00000, 0xffc00000, 0x7fc00001, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff,
		0x00000000, 0x80000000, 0x7f800000, 0xff800000,
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000,
		0x3f800000, 0xc0490fdb, 0x7f7fffff, 0x00800000,
	}
	v := make([]float32, len(bits))
	want := make([]byte, 4*len(bits))
	for i, b := range bits {
		v[i] = math.Float32frombits(b)
		binary.LittleEndian.PutUint32(want[4*i:], b)
	}
	saved := nativeLE
	defer func() { nativeLE = saved }()
	for _, native := range []bool{true, false} {
		if native && !saved {
			continue // a big-endian host has no copy path
		}
		nativeLE = native
		for n := 0; n <= len(v); n++ {
			dst := bytes.Repeat([]byte{0xa5}, 4*n+3)
			PutLE(dst, v[:n])
			if !bytes.Equal(dst[:4*n], want[:4*n]) || !bytes.Equal(dst[4*n:], []byte{0xa5, 0xa5, 0xa5}) {
				t.Fatalf("native=%v n=%d: PutLE wrote % x, want % x and the guard bytes intact", native, n, dst, want[:4*n])
			}
			back := make([]float32, n+1)
			back[n] = 42
			GetLE(back[:n], want)
			for i := 0; i < n; i++ {
				if got := math.Float32bits(back[i]); got != bits[i] {
					t.Fatalf("native=%v n=%d: GetLE element %d = %#x, want %#x", native, n, i, got, bits[i])
				}
			}
			if back[n] != 42 {
				t.Fatalf("native=%v n=%d: GetLE wrote past its vector", native, n)
			}
		}
	}
}

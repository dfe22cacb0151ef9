package tensor

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// nativeLE reports whether a float32's memory is its little-endian bytes,
// set once at init (tests flip it to run the portable loops).
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// PutLE writes v's little-endian float32 bytes into dst[:4·len(v)]: on a
// little-endian host one copy of v's memory, elsewhere one element at a
// time. Every bit pattern, NaN payloads included, passes unchanged.
//
//photon:hotpath
func PutLE(dst []byte, v []float32) {
	dst = dst[:4*len(v)]
	if nativeLE {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(dst)))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// GetLE reads v from the little-endian float32 bytes src[:4·len(v)], the
// inverse of PutLE.
//
//photon:hotpath
func GetLE(v []float32, src []byte) {
	src = src[:4*len(v)]
	if nativeLE {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(src)), src)
		return
	}
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

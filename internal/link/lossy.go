package link

import (
	"fmt"
	"math"
)

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

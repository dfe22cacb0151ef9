package testutil

import (
	"math"
	"math/rand"

	"photon/internal/tensor"
)

// RowInvariantKernels probes whether this machine's tensor kernels give an
// element the same bits whatever tile computes it: a row of A·B in a 4-row,
// 16-column tile or alone, an element of A·Bᵀ in a dot tile or alone. The
// assembly micro-kernels do; the portable loops do not (their dot tiles and
// Dot sum in different orders). Packages above tensor cannot see which path
// it chose, so bitwise tests ask the arithmetic and skip where the answer is
// no.
func RowInvariantKernels() bool {
	rng := rand.New(rand.NewSource(67))
	// n = 53: three 16-column tiles and a remainder, over one 4-row tile and
	// a remainder row.
	a, b, bt := tensor.NewMatrix(5, 29), tensor.NewMatrix(29, 53), tensor.NewMatrix(53, 29)
	tensor.RandNormal(rng, a.Data, 0, 1)
	tensor.RandNormal(rng, b.Data, 0, 1)
	tensor.RandNormal(rng, bt.Data, 0, 1)
	c, row, one := tensor.NewMatrix(5, 53), tensor.NewMatrix(1, 53), tensor.NewMatrix(1, 1)
	tensor.MatMul(c, a, b)
	for i := 0; i < 5; i++ {
		tensor.MatMul(row, tensor.FromSlice(1, 29, a.Row(i)), b)
		for j, v := range row.Data {
			if math.Float32bits(v) != math.Float32bits(c.At(i, j)) {
				return false
			}
		}
	}
	tensor.MatMulTransB(c, a, bt)
	for i := 0; i < 5; i++ {
		for j := 0; j < 53; j++ {
			tensor.MatMulTransB(one, tensor.FromSlice(1, 29, a.Row(i)), tensor.FromSlice(1, 29, bt.Row(j)))
			if math.Float32bits(one.Data[0]) != math.Float32bits(c.At(i, j)) {
				return false
			}
		}
	}
	return true
}

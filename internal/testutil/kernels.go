package testutil

import (
	"math"
	"math/rand"

	"photon/internal/tensor"
)

// RowInvariantKernels probes whether this machine's tensor kernels give a
// matrix row the same bits whatever tile it is computed in (the assembly
// micro-kernels do; the portable loops differ at rounding level). Packages
// above tensor cannot see which path it chose, so bitwise tests ask the
// arithmetic and skip where the answer is no.
func RowInvariantKernels() bool {
	rng := rand.New(rand.NewSource(67))
	a, b := tensor.NewMatrix(5, 29), tensor.NewMatrix(29, 37)
	tensor.RandNormal(rng, a.Data, 0, 1)
	tensor.RandNormal(rng, b.Data, 0, 1)
	c, row := tensor.NewMatrix(5, 37), tensor.NewMatrix(1, 37)
	tensor.MatMul(c, a, b)
	for i := 0; i < 5; i++ {
		tensor.MatMul(row, tensor.FromSlice(1, 29, a.Row(i)), b)
		for j, v := range row.Data {
			if math.Float32bits(v) != math.Float32bits(c.At(i, j)) {
				return false
			}
		}
	}
	return true
}

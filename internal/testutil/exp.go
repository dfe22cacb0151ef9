package testutil

import (
	"math"
	"runtime"
)

// ExpFMAOnAMD64 reports whether this machine evaluates the float64
// transcendentals under the training step as the pinned digests were taken:
// GOARCH is amd64, where math.tanh compiles unfused, and math.Exp runs the
// FMA instruction sequence of exp_amd64.s. Without FMA that file runs
// another sequence, and arm64 has its own exp and compiles math.tanh fused.
// The tensor kernels give the same bits on every machine; these two do not.
// At −0.2 the FMA sequence returns 0x3fea330ad6166159 and the other
// 0x3fea330ad616615a.
func ExpFMAOnAMD64() bool {
	return runtime.GOARCH == "amd64" && math.Float64bits(math.Exp(-0.2)) == 0x3fea330ad6166159
}

package tensor

import "math"

// This file holds the row and elementwise kernels that spend their time in
// float64 transcendentals: exp under the softmaxes and the cross-entropy,
// tanh under GELU (the training forward's assembly evaluates it once per
// element for both GELU and its derivative). Each is a Go loop — the
// reference, and what every machine but an amd64 with AVX2+FMA runs — behind
// an assembly body (kernels_amd64.s) taken when useAVX2 says so. The bodies
// return the Go loops' bits, not an approximation of them: every float64
// lane of their exp runs the instruction sequence math.Exp itself runs on
// such a machine, a lane outside exp's normal range (NaN, ±Inf, overflow, a
// denormal or zero result) is recomputed by math.Exp, their tanh is
// math.tanh's operations in source order, unfused as Go compiles them, and
// every float32 rounding, maximum and float64 sum happens where and in the
// order the Go loop does it. The Go loops' own multiply-adds are converted
// explicitly, so they round alike on every machine; math.Exp and math.tanh
// are what differ between machines (another exp sequence on amd64 without
// FMA, arm64's own exp and fused tanh).

// rowMax returns what `m := x[0]; for _, v := range x[1:] { if v > m { m = v } }`
// returns. len(x) ≥ 1. The lanes skip NaNs, which is the scan's answer
// unless x[0] is one: then nothing beats it.
//
//photon:hotpath
func rowMax(x []float32) float32 {
	m := x[0]
	if useAVX2 && m == m {
		return firstZero(x, maxAVX2(&x[0], len(x)))
	}
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// biasMax sets row[j] = row[j]·scale + slope·float32(j−pos) — the attention
// scores' scale and ALiBi bias — and returns the largest result, NaNs
// skipped (−Inf if every one is NaN).
//
//photon:hotpath
func biasMax(row []float32, scale, slope float32, pos int) float32 {
	if useAVX2 && len(row) > 0 {
		return firstZero(row, biasMaxAVX2(&row[0], len(row), scale, slope, pos))
	}
	m := float32(math.Inf(-1))
	for j := range row {
		v := float32(row[j]*scale) + float32(slope*float32(j-pos))
		row[j] = v
		if v > m {
			m = v
		}
	}
	return m
}

// firstZero gives a zero maximum m the sign of the first zero in x, the one
// an in-order scan keeps; the vector lanes see the zeros out of order.
//
//photon:hotpath
func firstZero(x []float32, m float32) float32 {
	if m != 0 {
		return m
	}
	for _, v := range x {
		if v == 0 {
			return v
		}
	}
	return m
}

// expSum sets dst[i] = float32(exp(float64(x[i]−m))), the subtraction in
// float32, unless dst is nil, and returns the float64 sum of the
// exponentials added in i order — of the float32 values when rounded is set,
// of the float64 ones otherwise. dst may be x.
//
//photon:hotpath
func expSum(dst, x []float32, m float32, rounded bool) float64 {
	if dst != nil {
		dst = dst[:len(x)]
	}
	var sum float64
	i := 0
	if useAVX2 {
		var d *float32
		for len(x)-i >= 4 {
			if dst != nil {
				d = &dst[i]
			}
			var done int
			done, sum = expSumAVX2(d, &x[i], len(x)-i, m, sum, rounded)
			if i += done; len(x)-i < 4 {
				break
			}
			// The group at i has a lane math.Exp must compute.
			sum = expSumGo(dst, x, m, rounded, sum, i, i+4)
			i += 4
		}
	}
	return expSumGo(dst, x, m, rounded, sum, i, len(x))
}

// expSumGo is expSum's loop over [lo, hi), continuing the running sum.
//
//photon:hotpath
func expSumGo(dst, x []float32, m float32, rounded bool, sum float64, lo, hi int) float64 {
	for i := lo; i < hi; i++ {
		e := math.Exp(float64(x[i] - m))
		if rounded {
			e = float64(float32(e))
		}
		if dst != nil {
			dst[i] = float32(e)
		}
		sum += e
	}
	return sum
}

// softmaxExp finishes a softmax row whose maximum is m: row[j] becomes
// float32(exp(row[j]−m)), summed in float64 in j order, then scaled by the
// float32 reciprocal of the sum.
//
//photon:hotpath
func softmaxExp(row []float32, m float32) {
	Scale(float32(1/expSum(row, row, m, true)), row)
}

// ExpRow sets dst[i] = float32(exp(x[i] − max x)) and returns max x and the
// float64 sum of exp(x[i] − max x), unrounded and added in i order: the
// shifted exponentials behind a stable log-sum-exp and its softmax gradient.
// len(x) ≥ 1; dst may be nil.
//
//photon:hotpath
func ExpRow(dst, x []float32) (maxV float32, sum float64) {
	maxV = rowMax(x)
	return maxV, expSum(dst, x, maxV, false)
}

// geluCoef is √(2/π) for the tanh GELU approximation.
const geluCoef = 0.7978845608028654

// GELU sets dst[i] to the tanh-approximated Gaussian error linear unit of
// x[i], evaluated in float64.
//
//photon:hotpath
func GELU(dst, x []float32) {
	dst = dst[:len(x)]
	i := 0
	if useAVX2 && len(x) >= 4 {
		i = len(x) &^ 3
		geluAVX2(&dst[0], &x[0], i)
	}
	for ; i < len(x); i++ {
		dst[i] = geluScalar(x[i])
	}
}

// GELUWithGrad sets y[i] to GELU(x[i]), as GELU does, and dg[i] to its
// derivative GELU′(x[i]), both from one evaluation of tanh: the forward pass
// of a layer whose backward is dx = dy·dg.
//
//photon:hotpath
func GELUWithGrad(y, dg, x []float32) {
	y = y[:len(x)]
	dg = dg[:len(x)]
	i := 0
	if useAVX2 && len(x) >= 4 {
		i = len(x) &^ 3
		geluWithGradAVX2(&y[0], &dg[0], &x[0], i)
	}
	for ; i < len(x); i++ {
		y[i] = geluScalar(x[i])
		dg[i] = geluGradScalar(x[i])
	}
}

//photon:hotpath
func geluScalar(x float32) float32 {
	xf := float64(x)
	return float32(0.5 * xf * (1 + math.Tanh(geluCoef*(xf+float64(0.044715*xf*xf*xf)))))
}

//photon:hotpath
func geluGradScalar(x float32) float32 {
	xf := float64(x)
	inner := geluCoef * (xf + float64(0.044715*xf*xf*xf))
	t := math.Tanh(inner)
	dInner := geluCoef * (1 + float64(3*0.044715*xf*xf))
	return float32(float64(0.5*(1+t)) + float64(0.5*xf*(1-float64(t*t))*dInner))
}

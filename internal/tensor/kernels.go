package tensor

import "fmt"

// This file holds the band-level compute kernels the worker pool executes.
// Their flops go through eight micro-kernels that share streamed loads across
// four rows, as a register-tiled sgemm does — axpy, axpy4, axpy4p2, axpy4in,
// axpy4in2 (rows accumulate) and Dot, dot4, dot4x2 (rows reduce, the Bᵀ
// kernels) — under kcBlock-deep K panels that keep A and B slices in L1/L2.
//
// Each micro-kernel is a Go loop — the reference, and what every machine but
// an amd64 with AVX2+FMA runs — behind an assembly body (kernels_amd64.s)
// taken when useAVX2, set once at init from CPUID, says so. There every
// axpy-family element is one FMA chain in p order and every dot one fixed
// lane tree, so a row's bits do not depend on the tile, pair, remainder row
// or pool band that computed it (in Go they do, at rounding level); the two
// paths agree within 1e-6 of Σ|terms|.
//
// All kernels operate on [lo, hi) bands of their outer dimension so the pool
// can split work without synchronization: each band owns its C rows.

// kcBlock is the K-dimension cache block: 128 float32 columns × (4 C rows +
// 1 B row) ≈ 2.5 KB of hot panel per tile, comfortably inside L1.
const kcBlock = 128

// bandMatMul computes C[lo:hi] = A[lo:hi]·B with a 4-row register tile
// under K-panel cache blocking: the outer loop walks kcBlock-deep panels of
// B so a ~kcBlock·n slice of B stays cache-resident while every C row of
// the band accumulates against it, and within a panel each streamed B row
// feeds four C rows (axpy4). (A packed-panel 4×4 tile was measured slower
// in pure Go: per-iteration panel indexing costs more than the streaming
// stores it saves.)
//
//photon:hotpath
func bandMatMul(c, a, b *Matrix, lo, hi int) {
	n, k := b.Cols, a.Cols
	bd := b.Data
	for i := lo; i < hi; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for x := range ci {
			ci[x] = 0
		}
	}
	for p0 := 0; p0 < k; p0 += kcBlock {
		p1 := min(p0+kcBlock, k)
		i := lo
		for ; i+4 <= hi; i += 4 {
			a0 := a.Data[i*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k]
			a2 := a.Data[(i+2)*k : (i+3)*k]
			a3 := a.Data[(i+3)*k : (i+4)*k]
			c0 := c.Data[i*n : (i+1)*n]
			c1 := c.Data[(i+1)*n : (i+2)*n]
			c2 := c.Data[(i+2)*n : (i+3)*n]
			c3 := c.Data[(i+3)*n : (i+4)*n]
			p := p0
			for ; p+2 <= p1; p += 2 {
				axpy4p2(a0[p], a1[p], a2[p], a3[p],
					a0[p+1], a1[p+1], a2[p+1], a3[p+1],
					bd[p*n:(p+1)*n], bd[(p+1)*n:(p+2)*n], c0, c1, c2, c3)
			}
			for ; p < p1; p++ {
				axpy4(a0[p], a1[p], a2[p], a3[p], bd[p*n:(p+1)*n], c0, c1, c2, c3)
			}
		}
		for ; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := c.Data[i*n : (i+1)*n]
			for p := p0; p < p1; p++ {
				if av := ai[p]; useAVX2 || av != 0 {
					axpy(av, bd[p*n:(p+1)*n], ci)
				}
			}
		}
	}
}

// bandMatMulTransB computes C[lo:hi] = A[lo:hi]·Bᵀ.
//
//photon:hotpath
func bandMatMulTransB(c, a, b *Matrix, lo, hi int) {
	n, k := b.Rows, a.Cols
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		c0 := c.Data[i*n : (i+1)*n]
		c1 := c.Data[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			c0[j], c0[j+1], c0[j+2], c0[j+3],
				c1[j], c1[j+1], c1[j+2], c1[j+3] = dot4x2(a0, a1, b0, b1, b2, b3)
		}
		for ; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			c0[j] = Dot(a0, bj)
			c1[j] = Dot(a1, bj)
		}
	}
	for ; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			ci[j], ci[j+1], ci[j+2], ci[j+3] = dot4(ai,
				b.Data[j*k:(j+1)*k], b.Data[(j+1)*k:(j+2)*k],
				b.Data[(j+2)*k:(j+3)*k], b.Data[(j+3)*k:(j+4)*k])
		}
		for ; j < n; j++ {
			ci[j] = Dot(ai, b.Data[j*k:(j+1)*k])
		}
	}
}

// bandMatMulTransAAccum computes C[lo:hi] += (Aᵀ·B)[lo:hi], i.e. the band
// covers columns [lo, hi) of A. Groups of four A/B rows are fused so each C
// row is streamed once per group (4x less C traffic) while the four B rows
// stay L1-hot; the all-zero skip preserves the fast path for the sparse
// gradients this kernel sees (padding rows, causal triangles).
//
//photon:hotpath
func bandMatMulTransAAccum(c, a, b *Matrix, lo, hi int) {
	m, n, k := a.Cols, b.Cols, a.Rows
	p := 0
	for ; p+4 <= k; p += 4 {
		a0 := a.Data[p*m : (p+1)*m]
		a1 := a.Data[(p+1)*m : (p+2)*m]
		a2 := a.Data[(p+2)*m : (p+3)*m]
		a3 := a.Data[(p+3)*m : (p+4)*m]
		b0 := b.Data[p*n : (p+1)*n]
		b1 := b.Data[(p+1)*n : (p+2)*n]
		b2 := b.Data[(p+2)*n : (p+3)*n]
		b3 := b.Data[(p+3)*n : (p+4)*n]
		i := lo
		for ; i+2 <= hi; i += 2 {
			v00, v01, v02, v03 := a0[i], a1[i], a2[i], a3[i]
			v10, v11, v12, v13 := a0[i+1], a1[i+1], a2[i+1], a3[i+1]
			z0 := v00 == 0 && v01 == 0 && v02 == 0 && v03 == 0
			z1 := v10 == 0 && v11 == 0 && v12 == 0 && v13 == 0
			switch {
			case z0 && z1:
			case z1:
				axpy4in(v00, v01, v02, v03, b0, b1, b2, b3, c.Data[i*n:(i+1)*n])
			case z0:
				axpy4in(v10, v11, v12, v13, b0, b1, b2, b3, c.Data[(i+1)*n:(i+2)*n])
			default:
				axpy4in2(v00, v01, v02, v03, v10, v11, v12, v13,
					b0, b1, b2, b3, c.Data[i*n:(i+1)*n], c.Data[(i+1)*n:(i+2)*n])
			}
		}
		for ; i < hi; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			axpy4in(v0, v1, v2, v3, b0, b1, b2, b3, c.Data[i*n:(i+1)*n])
		}
	}
	for ; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			if av := ap[i]; av != 0 {
				axpy(av, bp, c.Data[i*n:(i+1)*n])
			}
		}
	}
}

// bandBatchMatMul computes C_t = A_t·B_t for items t in [lo, hi), where
// A_t is square and row i only consumes A_t[i][:i+1] — the attention context
// product P·V (and dQ = dS·K), whose structurally zero upper triangle is
// skipped entirely, halving the flops.
//
//photon:hotpath
func bandBatchMatMul(c, a, b *Matrix, batch, lo, hi int) {
	m := c.Rows / batch
	k := a.Cols
	n := c.Cols
	for it := lo; it < hi; it++ {
		cd := c.Data[it*m*n : (it+1)*m*n]
		ad := a.Data[it*m*k : (it+1)*m*k]
		bd := b.Data[it*k*n : (it+1)*k*n]
		for i := 0; i < m; i++ {
			ci := cd[i*n : (i+1)*n]
			clear(ci)
			ai := ad[i*k : (i+1)*k]
			end := i + 1
			p := 0
			for ; p+4 <= end; p += 4 {
				axpy4in(ai[p], ai[p+1], ai[p+2], ai[p+3],
					bd[p*n:(p+1)*n], bd[(p+1)*n:(p+2)*n],
					bd[(p+2)*n:(p+3)*n], bd[(p+3)*n:(p+4)*n], ci)
			}
			for ; p < end; p++ {
				if av := ai[p]; useAVX2 || av != 0 {
					axpy(av, bd[p*n:(p+1)*n], ci)
				}
			}
		}
	}
}

// bandBatchMatMulTransB computes C_t = A_t·B_tᵀ for items t in [lo, hi),
// where C_t is square and only C_t[i][:i+1] is written — the attention score
// product Q·Kᵀ (and dP = dCtx·Vᵀ), whose upper triangle is masked out by the
// softmax anyway. Entries above the diagonal are left untouched; the softmax
// kernels own them.
//
//photon:hotpath
func bandBatchMatMulTransB(c, a, b *Matrix, batch, lo, hi int) {
	m := c.Rows / batch
	k := a.Cols
	n := c.Cols
	for it := lo; it < hi; it++ {
		cd := c.Data[it*m*n : (it+1)*m*n]
		ad := a.Data[it*m*k : (it+1)*m*k]
		bd := b.Data[it*n*k : (it+1)*n*k]
		for i := 0; i < m; i++ {
			ai := ad[i*k : (i+1)*k]
			ci := cd[i*n : (i+1)*n]
			end := i + 1
			j := 0
			for ; j+4 <= end; j += 4 {
				ci[j], ci[j+1], ci[j+2], ci[j+3] = dot4(ai,
					bd[j*k:(j+1)*k], bd[(j+1)*k:(j+2)*k],
					bd[(j+2)*k:(j+3)*k], bd[(j+3)*k:(j+4)*k])
			}
			for ; j < end; j++ {
				ci[j] = Dot(ai, bd[j*k:(j+1)*k])
			}
		}
	}
}

// bandBatchMatMulTransA computes C_t = A_tᵀ·B_t for items t in [lo, hi)
// (zeroing C_t first). The grouped zero-skip in the shared band kernel
// exploits the causal zeros in attention probabilities / score gradients
// (dV = Pᵀ·dCtx, dK = dSᵀ·Q).
//
//photon:hotpath
func bandBatchMatMulTransA(c, a, b *Matrix, batch, lo, hi int) {
	k := a.Rows / batch
	m := a.Cols
	n := b.Cols
	for it := lo; it < hi; it++ {
		cd := c.Data[it*m*n : (it+1)*m*n]
		for x := range cd {
			cd[x] = 0
		}
		ca := Matrix{Rows: m, Cols: n, Data: cd}
		aa := Matrix{Rows: k, Cols: m, Data: a.Data[it*k*m : (it+1)*k*m]}
		ba := Matrix{Rows: k, Cols: n, Data: b.Data[it*k*n : (it+1)*k*n]}
		bandMatMulTransAAccum(&ca, &aa, &ba, 0, m)
	}
}

// bandCausalSoftmax fuses the attention score epilogue for head-items in
// [lo, hi): scale the raw Q·Kᵀ dots, add the ALiBi bias slope·(j−i), apply
// the causal mask, and softmax each row in place. Masked positions are
// written as exact zeros so downstream kernels may treat the matrix as
// dense-lower-triangular.
//
//photon:hotpath
func bandCausalSoftmax(s *Matrix, heads int, sl []float32, scale float32, lo, hi int) {
	seq := s.Cols
	for it := lo; it < hi; it++ {
		slope := sl[it%heads]
		for i := 0; i < seq; i++ {
			row := s.Data[(it*seq+i)*seq : (it*seq+i+1)*seq]
			softmaxExp(row[:i+1], biasMax(row[:i+1], scale, slope, i))
			clear(row[i+1:])
		}
	}
}

// bandCausalSoftmaxGrad fuses the softmax backward for head-items in
// [lo, hi): given probabilities P (in p) and upstream dP (in dp, overwritten),
// computes dS_ij = scale·P_ij·(dP_ij − Σ_k P_ik·dP_ik) on the causal support
// and exact zeros above the diagonal. The score scale is folded in so the
// caller can feed dS straight into the dQ/dK products.
//
//photon:hotpath
func bandCausalSoftmaxGrad(dp, p *Matrix, scale float32, lo, hi int) {
	seq := dp.Cols
	for it := lo; it < hi; it++ {
		for i := 0; i < seq; i++ {
			off := (it*seq + i) * seq
			dpr := dp.Data[off : off+seq]
			pr := p.Data[off : off+seq]
			var dot float32
			for j := 0; j <= i; j++ {
				dot += pr[j] * dpr[j]
			}
			for j := 0; j <= i; j++ {
				dpr[j] = scale * pr[j] * (dpr[j] - dot)
			}
			for j := i + 1; j < seq; j++ {
				dpr[j] = 0
			}
		}
	}
}

// --- exported batched / fused entry points ---

//photon:allocok
func checkBatch(rowsA, batch int, what string) int {
	if batch <= 0 || rowsA%batch != 0 {
		panic(fmt.Sprintf("tensor: %s: %d rows not divisible into %d items", what, rowsA, batch))
	}
	return rowsA / batch
}

// BatchMatMulCausal computes C_t = A_t·B_t for t in [0, batch): A stacks
// square [m, m] causal items (attention P·V), B stacks [m, n] items, C stacks
// [m, n] items. Row i of A_t only contributes columns [0, i], so the
// structurally zero upper triangle is never read.
//
//photon:hotpath
func BatchMatMulCausal(c, a, b *Matrix, batch int) {
	m := checkBatch(a.Rows, batch, "BatchMatMulCausal")
	k := checkBatch(b.Rows, batch, "BatchMatMulCausal")
	if a.Cols != k || m != k || c.Rows != batch*m || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: BatchMatMulCausal shape mismatch %dx(%dx%d)·(%dx%d)->(%dx%d)",
			batch, m, a.Cols, k, b.Cols, c.Rows, c.Cols))
	}
	dispatch(batch, satMul(m, satMul(k, b.Cols))/2, task{kind: kBatchMatMulCausal, c: *c, a: *a, b: *b, batch: batch})
}

// BatchMatMulTransBCausal computes C_t = A_t·B_tᵀ for t in [0, batch) with
// square causal outputs (attention Q·Kᵀ): A and B stack [m, k] items, C
// stacks [m, m] items. Only C_t[i][j] with j ≤ i is computed; entries above
// the diagonal are left untouched for the masked-softmax kernel to own.
//
//photon:hotpath
func BatchMatMulTransBCausal(c, a, b *Matrix, batch int) {
	m := checkBatch(a.Rows, batch, "BatchMatMulTransBCausal")
	n := checkBatch(b.Rows, batch, "BatchMatMulTransBCausal")
	if a.Cols != b.Cols || m != n || c.Rows != batch*m || c.Cols != n {
		panic(fmt.Sprintf("tensor: BatchMatMulTransBCausal shape mismatch %dx(%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			batch, m, a.Cols, n, b.Cols, c.Rows, c.Cols))
	}
	dispatch(batch, satMul(m, satMul(n, a.Cols))/2, task{kind: kBatchMatMulTransBCausal, c: *c, a: *a, b: *b, batch: batch})
}

// BatchMatMulTransA computes C_t = A_tᵀ·B_t for t in [0, batch): A stacks
// [k, m] items, B stacks [k, n] items, C stacks [m, n] items.
//
//photon:hotpath
func BatchMatMulTransA(c, a, b *Matrix, batch int) {
	k := checkBatch(a.Rows, batch, "BatchMatMulTransA")
	if b.Rows != a.Rows || c.Rows != batch*a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: BatchMatMulTransA shape mismatch %dx(%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			batch, k, a.Cols, k, b.Cols, c.Rows, c.Cols))
	}
	dispatch(batch, satMul(k, satMul(a.Cols, b.Cols)), task{kind: kBatchMatMulTransA, c: *c, a: *a, b: *b, batch: batch})
}

// CausalSoftmaxRows applies the fused attention score epilogue in place: for
// each of batch·heads [seq, seq] score items, scale + ALiBi bias + causal
// mask + row softmax, writing exact zeros above the diagonal. slopes has one
// ALiBi slope per head; item t uses slopes[t % heads].
//
//photon:hotpath
func CausalSoftmaxRows(s *Matrix, batch, heads int, slopes []float32, scale float32) {
	items := batch * heads
	seq := s.Cols
	if len(slopes) != heads || checkBatch(s.Rows, items, "CausalSoftmaxRows") != seq {
		panic(fmt.Sprintf("tensor: CausalSoftmaxRows shape mismatch %d rows, %d cols, %d items, %d slopes",
			s.Rows, s.Cols, items, len(slopes)))
	}
	dispatch(items, satMul(seq, seq), task{kind: kCausalSoftmax, a: *s, heads: heads, sl: slopes, scale: scale})
}

// CausalSoftmaxGradRows applies the fused softmax backward in place: dp
// (upstream probability gradients) is overwritten with score gradients
// dS = scale·P∘(dP − rowsum(P∘dP)) on the causal support, zero above the
// diagonal. p holds the probabilities produced by CausalSoftmaxRows.
//
//photon:hotpath
func CausalSoftmaxGradRows(dp, p *Matrix, batch, heads int, scale float32) {
	items := batch * heads
	seq := dp.Cols
	if p.Rows != dp.Rows || p.Cols != dp.Cols || checkBatch(dp.Rows, items, "CausalSoftmaxGradRows") != seq {
		panic("tensor: CausalSoftmaxGradRows shape mismatch")
	}
	dispatch(items, satMul(seq, seq), task{kind: kCausalSoftmaxGrad, c: *dp, a: *p, scale: scale})
}

// --- register-tiled micro-kernels ---

// axpy4 computes y0..y3 += a0..a3 * x: one streamed load of x feeds four
// output rows (the 4-row register tile of the sgemm kernel).
//
//photon:hotpath
func axpy4(a0, a1, a2, a3 float32, x, y0, y1, y2, y3 []float32) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	if useAVX2 && n > 0 {
		axpy4AVX2(a0, a1, a2, a3, &x[0], &y0[0], &y1[0], &y2[0], &y3[0], n)
		return
	}
	for i, xv := range x {
		y0[i] += a0 * xv
		y1[i] += a1 * xv
		y2[i] += a2 * xv
		y3[i] += a3 * xv
	}
}

// axpy4in computes y += a0·x0 + a1·x1 + a2·x2 + a3·x3: four streamed input
// rows accumulate into one output row held hot.
//
//photon:hotpath
func axpy4in(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	x0 = x0[:n]
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	if useAVX2 && n > 0 {
		axpy4inAVX2(a0, a1, a2, a3, &x0[0], &x1[0], &x2[0], &x3[0], &y[0], n)
		return
	}
	for i := range y {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// dot4 computes four dot products of x against y0..y3 in one pass over x.
//
//photon:hotpath
func dot4(x, y0, y1, y2, y3 []float32) (s0, s1, s2, s3 float32) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	if useAVX2 && n > 0 {
		return dot4AVX2(&x[0], &y0[0], &y1[0], &y2[0], &y3[0], n)
	}
	for i, xv := range x {
		s0 += xv * y0[i]
		s1 += xv * y1[i]
		s2 += xv * y2[i]
		s3 += xv * y3[i]
	}
	return
}

// axpy4p2 fuses two axpy4 steps: y0..y3 += a0..a3·x + b0..b3·z. Each loaded
// and stored C element absorbs two FMAs, halving the dominant store traffic
// of the sgemm inner loop.
//
//photon:hotpath
func axpy4p2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x, z, y0, y1, y2, y3 []float32) {
	n := len(x)
	z = z[:n]
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	if useAVX2 && n > 0 {
		axpy4p2AVX2(a0, a1, a2, a3, b0, b1, b2, b3, &x[0], &z[0], &y0[0], &y1[0], &y2[0], &y3[0], n)
		return
	}
	for i, xv := range x {
		zv := z[i]
		y0[i] += a0*xv + b0*zv
		y1[i] += a1*xv + b1*zv
		y2[i] += a2*xv + b2*zv
		y3[i] += a3*xv + b3*zv
	}
}

// axpy4in2 fuses two axpy4in accumulations sharing the same four X rows:
// y += a0..a3·x0..x3 and z += b0..b3·x0..x3. The X loads are paid once for
// both output rows.
//
//photon:hotpath
func axpy4in2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x0, x1, x2, x3, y, z []float32) {
	n := len(y)
	x0 = x0[:n]
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	z = z[:n]
	if useAVX2 && n > 0 {
		axpy4in2AVX2(a0, a1, a2, a3, b0, b1, b2, b3, &x0[0], &x1[0], &x2[0], &x3[0], &y[0], &z[0], n)
		return
	}
	for i := range y {
		v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
		y[i] += a0*v0 + a1*v1 + a2*v2 + a3*v3
		z[i] += b0*v0 + b1*v1 + b2*v2 + b3*v3
	}
}

// dot4x2 computes eight dot products — two A rows against four B rows — in
// one fused pass, paying each B load once for two accumulator sets.
//
//photon:hotpath
func dot4x2(x0, x1, y0, y1, y2, y3 []float32) (s00, s01, s02, s03, s10, s11, s12, s13 float32) {
	n := len(x0)
	x1 = x1[:n]
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	if useAVX2 && n > 0 {
		return dot4x2AVX2(&x0[0], &x1[0], &y0[0], &y1[0], &y2[0], &y3[0], n)
	}
	for i, v0 := range x0 {
		v1 := x1[i]
		b0, b1, b2, b3 := y0[i], y1[i], y2[i], y3[i]
		s00 += v0 * b0
		s01 += v0 * b1
		s02 += v0 * b2
		s03 += v0 * b3
		s10 += v1 * b0
		s11 += v1 * b1
		s12 += v1 * b2
		s13 += v1 * b3
	}
	return
}

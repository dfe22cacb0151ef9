package tensor

import (
	"fmt"
	"math"
)

// This file holds the band-level compute kernels the worker pool executes.
// Their flops go through eight micro-kernels: the A·B and Aᵀ·B products run
// on tile4x16, a 4×16 block of C held in registers across a kcBlock-deep K
// panel (the register tile of an sgemm), with axpy for the columns a tile
// leaves over and axpyRow for the A·B rows (decode's one to three rows a
// shard), one C row's 32 or 16 elements held in registers across the panel;
// the Bᵀ products run on dot3x4, twelve dot products of three A rows
// against four B rows held in registers across the whole depth and repeated
// over a row of column blocks in one call, with dot4x2, dot4 and Dot for the
// rows and columns it leaves over; decode adds axpy4in (four input rows into
// one output row).
//
// Each micro-kernel is a Go loop — the reference, and what every machine but
// an amd64 with AVX2+FMA runs — behind an assembly body (kernels_amd64.s)
// taken when useAVX2, set once at init from CPUID, says so. Both paths
// compute the same bits: every axpy-family element is one fma32 chain in p
// order, and every dot eight fma32 lanes reduced by one fixed tree and an
// fma32 tail (Dot), so an element's bits do not depend on the path, tile,
// remainder row or column, or pool band that computed it. fma32 rounds once,
// as VFMADD231SS does; every other multiply-add in the package's Go loops
// converts its product explicitly, so no compiler fuses it (arm64 would).
//
// The causal softmax backward runs the float32 dot chains of four rows
// interleaved in Go, each in the order the one-row loop sums it, and each
// row's update, (scale·p)·(d − dot), through an unfused assembly body; its
// bits are the one-row loop's on every machine.
//
// All kernels operate on [lo, hi) bands of their outer dimension so the pool
// can split work without synchronization: each band owns its C rows.

// kcBlock is the K-dimension cache block: one tile4x16 call covers at most
// 128 steps of p, so a band's row tiles reuse one 128-row B panel from L2,
// and the slice a call streams (128×16, 8 KB) and its four A rows (2 KB) fit
// L1 while C stays in registers.
const kcBlock = 128

// bandMatMul computes C[lo:hi] = A[lo:hi]·B one kcBlock-deep K panel at a
// time: each group of four rows runs tile4x16 across the 16-column blocks of
// the panel, and the rows and columns left over go through axpyRow, which
// computes the same FMA chain per element. The rows left over — a decode
// step's one to three rows a shard, prefill's m mod 4 — take axpyRow's
// one-row register tile on AVX2.
//
//photon:hotpath
func bandMatMul(c, a, b *Matrix, lo, hi int) {
	n, k := b.Cols, a.Cols
	n16 := n &^ 15
	bd := b.Data
	clear(c.Data[lo*n : hi*n])
	for p0 := 0; p0 < k; p0 += kcBlock {
		p1 := min(p0+kcBlock, k)
		i := lo
		for ; i+4 <= hi; i += 4 {
			for j := 0; j < n16; j += 16 {
				tile4x16(a.Data[i*k+p0:], k, 1, bd[p0*n+j:], n, c.Data[i*n+j:], n, p1-p0, false)
			}
			if n16 < n {
				for r := i; r < i+4; r++ {
					axpyRow(a.Data[r*k:(r+1)*k], bd, c.Data[r*n:(r+1)*n], n16, p0, p1)
				}
			}
		}
		for ; i < hi; i++ {
			axpyRow(a.Data[i*k:(i+1)*k], bd, c.Data[i*n:(i+1)*n], 0, p0, p1)
		}
	}
}

// axpyRow adds Σ_p ai[p]·B[p][j0:] into ci[j0:] for p in [p0, p1), where B
// is bd with rows as long as ci: the remainder loop of the A·B kernels. It
// adds every term, zeros too, as tile4x16 does. On AVX2 the columns up to
// the last multiple of 16 past j0 run on axpyRowAVX2, the one-row register
// tile, which holds 32 (then 16) elements of ci in registers across the
// whole p range; the columns after them, and every column on the Go path,
// take one axpy per p. Each element is the same fma32 chain in p order
// either way.
//
//photon:hotpath
func axpyRow(ai, bd, ci []float32, j0, p0, p1 int) {
	n := len(ci)
	if n16 := j0 + (n-j0)&^15; useAVX2 && n16 > j0 && p1 > p0 {
		_ = ai[p1-1]
		_ = bd[(p1-1)*n+n16-1]
		axpyRowAVX2(&ai[p0], &bd[p0*n+j0], n, &ci[j0], p1-p0, n16-j0)
		j0 = n16
	}
	if j0 < n {
		for p := p0; p < p1; p++ {
			axpy(ai[p], bd[p*n+j0:(p+1)*n], ci[j0:])
		}
	}
}

// bandMatMulTransB computes C[lo:hi] = A[lo:hi]·Bᵀ. Each group of three
// rows makes one dot3x4 call across the n&^3 columns, with Dot for the
// columns left over; the rows left over go through dot4x2 (two) or dot4
// (one). All four sum an element in Dot's order.
//
//photon:hotpath
func bandMatMulTransB(c, a, b *Matrix, lo, hi int) {
	n, k := b.Rows, a.Cols
	n4 := n &^ 3
	i := lo
	for ; i+3 <= hi; i += 3 {
		dot3x4(a.Data[i*k:], k, b.Data, k, c.Data[i*n:], n, k, n4/4)
		for r := i; r < i+3; r++ {
			dotRow(a.Data[r*k:(r+1)*k], b.Data, c.Data[r*n:(r+1)*n], n4, n)
		}
	}
	if i+2 <= hi {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		c0 := c.Data[i*n : (i+1)*n]
		c1 := c.Data[(i+1)*n : (i+2)*n]
		j := 0
		for ; j < n4; j += 4 {
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
		i += 2
	}
	if i < hi {
		dotRow(a.Data[i*k:(i+1)*k], b.Data, c.Data[i*n:(i+1)*n], 0, n)
	}
}

// dotRow computes ci[j] = dot(ai, B[j]) for j in [j0, j1), where B is bd
// with rows as long as ai and j0 a multiple of four: dot4 on each group of
// four columns, Dot on the rest.
//
//photon:hotpath
func dotRow(ai, bd, ci []float32, j0, j1 int) {
	k := len(ai)
	j := j0
	for ; j+4 <= j1; j += 4 {
		ci[j], ci[j+1], ci[j+2], ci[j+3] = dot4(ai,
			bd[j*k:(j+1)*k], bd[(j+1)*k:(j+2)*k],
			bd[(j+2)*k:(j+3)*k], bd[(j+3)*k:(j+4)*k])
	}
	for ; j < j1; j++ {
		ci[j] = Dot(ai, bd[j*k:(j+1)*k])
	}
}

// bandMatMulTransAAccum computes C[lo:hi] += (Aᵀ·B)[lo:hi], i.e. the band
// covers columns [lo, hi) of A, one kcBlock-deep K panel at a time with
// tile4x16 on groups of four C rows, where A's four values at each p are
// contiguous. A row passes over each group of four p (from p = 0) whose four
// A values are all zero, and over each zero of the k mod 4 tail: the fast
// path for the sparse gradients this kernel sees (padding rows, causal
// triangles), and a rule every row keeps, whichever tile or remainder
// computes it, so a 0·Inf term is skipped or kept the same way everywhere.
//
//photon:hotpath
func bandMatMulTransAAccum(c, a, b *Matrix, lo, hi int) {
	m, n, k := a.Cols, b.Cols, a.Rows
	n16, k4 := n&^15, k&^3
	for p0 := 0; p0 < k4; p0 += kcBlock {
		p1 := min(p0+kcBlock, k4)
		i := lo
		for ; i+4 <= hi; i += 4 {
			for j := 0; j < n16; j += 16 {
				tile4x16(a.Data[p0*m+i:], 1, m, b.Data[p0*n+j:], n, c.Data[i*n+j:], n, p1-p0, true)
			}
			if n16 < n {
				for r := i; r < i+4; r++ {
					axpyGroups(c, a, b, r, n16, p0, p1)
				}
			}
		}
		for ; i < hi; i++ {
			axpyGroups(c, a, b, i, 0, p0, p1)
		}
	}
	for p := k4; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			if av := ap[i]; av != 0 {
				axpy(av, bp, c.Data[i*n:(i+1)*n])
			}
		}
	}
}

// axpyGroups is tile4x16's skip rule for one C row i over columns [j0, n):
// C[i][j0:] += Σ_p A[p][i]·B[p][j0:] for p in [p0, p1), a multiple of four
// apart, passing over each group of four p whose four A values are all zero.
//
//photon:hotpath
func axpyGroups(c, a, b *Matrix, i, j0, p0, p1 int) {
	m, n := a.Cols, b.Cols
	ci := c.Data[i*n+j0 : (i+1)*n]
	for p := p0; p < p1; p += 4 {
		if a.Data[p*m+i] == 0 && a.Data[(p+1)*m+i] == 0 && a.Data[(p+2)*m+i] == 0 && a.Data[(p+3)*m+i] == 0 {
			continue
		}
		for q := p; q < p+4; q++ {
			axpy(a.Data[q*m+i], b.Data[q*n+j0:(q+1)*n], ci)
		}
	}
}

// bandBatchMatMul computes C_t = A_t·B_t for items t in [lo, hi), where
// A_t is square and row i only consumes A_t[i][:i+1] — the attention context
// product P·V (and dQ = dS·K), whose structurally zero upper triangle is
// skipped entirely, halving the flops. Rows i..i+3 (i a multiple of four)
// share p ∈ [0, i] as one tile4x16 panel per 16 columns, then finish their
// three-row triangle p ∈ (i, i+3] in p order through axpy.
//
//photon:hotpath
func bandBatchMatMul(c, a, b *Matrix, batch, lo, hi int) {
	m := c.Rows / batch
	k := a.Cols
	n := c.Cols
	n16 := n &^ 15
	for it := lo; it < hi; it++ {
		cd := c.Data[it*m*n : (it+1)*m*n]
		ad := a.Data[it*m*k : (it+1)*m*k]
		bd := b.Data[it*k*n : (it+1)*k*n]
		clear(cd)
		i := 0
		for ; i+4 <= m; i += 4 {
			for j := 0; j < n16; j += 16 {
				tile4x16(ad[i*k:], k, 1, bd[j:], n, cd[i*n+j:], n, i+1, false)
			}
			for r := i; r < i+4; r++ {
				ar, cr := ad[r*k:(r+1)*k], cd[r*n:(r+1)*n]
				if n16 < n {
					axpyRow(ar, bd, cr, n16, 0, i+1)
				}
				axpyRow(ar, bd, cr, 0, i+1, r+1)
			}
		}
		for ; i < m; i++ {
			axpyRow(ad[i*k:(i+1)*k], bd, cd[i*n:(i+1)*n], 0, 0, i+1)
		}
	}
}

// bandBatchMatMulTransB computes C_t = A_t·B_tᵀ for items t in [lo, hi),
// where C_t is square and only C_t[i][:i+1] is written — the attention score
// product Q·Kᵀ (and dP = dCtx·Vᵀ), whose upper triangle is masked out by the
// softmax anyway. Entries above the diagonal are left untouched; the softmax
// kernels own them. Rows i..i+2 (i a multiple of three) share columns
// [0, (i+1)&^3) as one dot3x4 call, then each finishes its own triangle
// through dot4 and Dot; the rows left over take their whole triangle that way.
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
		i := 0
		for ; i+3 <= m; i += 3 {
			n4 := (i + 1) &^ 3
			dot3x4(ad[i*k:], k, bd, k, cd[i*n:], n, k, n4/4)
			for r := i; r < i+3; r++ {
				dotRow(ad[r*k:(r+1)*k], bd, cd[r*n:(r+1)*n], n4, r+1)
			}
		}
		for ; i < m; i++ {
			dotRow(ad[i*k:(i+1)*k], bd, cd[i*n:(i+1)*n], 0, i+1)
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
// Rows go four at a time: the four dot products run interleaved over the
// columns the rows share, each still a float32 sum in k order, so the four
// independent chains overlap where one row's chain would wait on each add.
// Then each row adds its own last columns and is updated as it would be
// alone.
//
//photon:hotpath
func bandCausalSoftmaxGrad(dp, p *Matrix, scale float32, lo, hi int) {
	seq := dp.Cols
	for it := lo; it < hi; it++ {
		base := it * seq * seq
		i := 0
		for ; i+4 <= seq; i += 4 {
			off := base + i*seq
			p0, d0 := p.Data[off:off+seq], dp.Data[off:off+seq]
			p1, d1 := p.Data[off+seq:off+2*seq], dp.Data[off+seq:off+2*seq]
			p2, d2 := p.Data[off+2*seq:off+3*seq], dp.Data[off+2*seq:off+3*seq]
			p3, d3 := p.Data[off+3*seq:off+4*seq], dp.Data[off+3*seq:off+4*seq]
			s0, s1, s2, s3 := dot4rows(p0[:i+1], d0, p1, d1, p2, d2, p3, d3)
			s1 = rowDot(p1, d1, s1, i+1, i+2)
			s2 = rowDot(p2, d2, s2, i+1, i+3)
			s3 = rowDot(p3, d3, s3, i+1, i+4)
			softmaxGradRow(d0, p0, s0, scale, i)
			softmaxGradRow(d1, p1, s1, scale, i+1)
			softmaxGradRow(d2, p2, s2, scale, i+2)
			softmaxGradRow(d3, p3, s3, scale, i+3)
		}
		for ; i < seq; i++ {
			off := base + i*seq
			pr, dpr := p.Data[off:off+seq], dp.Data[off:off+seq]
			softmaxGradRow(dpr, pr, rowDot(pr, dpr, 0, 0, i+1), scale, i)
		}
	}
}

// dot4rows returns the four sums Σ_k pr[k]·dr[k] over k < len(p0), one
// float32 chain per row in k order, interleaved.
//
//photon:hotpath
func dot4rows(p0, d0, p1, d1, p2, d2, p3, d3 []float32) (s0, s1, s2, s3 float32) {
	n := len(p0)
	d0, p1, d1, p2, d2, p3, d3 = d0[:n], p1[:n], d1[:n], p2[:n], d2[:n], p3[:n], d3[:n]
	for k := range p0 {
		s0 += float32(p0[k] * d0[k])
		s1 += float32(p1[k] * d1[k])
		s2 += float32(p2[k] * d2[k])
		s3 += float32(p3[k] * d3[k])
	}
	return
}

// rowDot continues the float32 sum s with pr[k]·dr[k] for k in [lo, hi).
//
//photon:hotpath
func rowDot(pr, dr []float32, s float32, lo, hi int) float32 {
	pr, dr = pr[lo:hi], dr[lo:hi]
	for k, v := range pr {
		s += float32(v * dr[k])
	}
	return s
}

// softmaxGradRow finishes row i of a causal softmax backward whose dot
// product is dot: dr[j] = scale·pr[j]·(dr[j] − dot) for j ≤ i, eight lanes
// at a time on AVX2, and zero beyond.
//
//photon:hotpath
func softmaxGradRow(dr, pr []float32, dot, scale float32, i int) {
	pr, head := pr[:i+1], dr[:i+1]
	if useAVX2 {
		softmaxGradAVX2(&head[0], &pr[0], len(pr), dot, scale)
	} else {
		for j, v := range pr {
			head[j] = scale * v * (head[j] - dot)
		}
	}
	clear(dr[i+1:])
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

// tile4x16 adds A·B into a 4×16 block of C over kc steps of p,
//
//	C[r·ldc+j] += A[r·ars+p·aps] · B[p·ldb+j]   for r < 4, j < 16, p < kc,
//
// every element one fma32 chain in p order: the Go loop is one axpy per row
// and p. The assembly holds the block in eight YMM registers for the whole
// panel: per p, two B loads, four A broadcasts and eight FMAs, and C is
// loaded and stored once per call. With skip (A's four values at each p
// contiguous, ars = 1, and kc a multiple of four) row r passes over each
// group of four p whose four A values are all zero, as
// bandMatMulTransAAccum's rule says; otherwise every term is added.
//
//photon:hotpath
func tile4x16(a []float32, ars, aps int, b []float32, ldb int, c []float32, ldc, kc int, skip bool) {
	if kc <= 0 {
		return
	}
	if ars < 0 || aps < 0 || ldb < 0 || ldc < 0 || skip && (ars != 1 || kc%4 != 0) {
		panic("tensor: tile4x16 bad stride or panel")
	}
	_ = a[3*ars+(kc-1)*aps]
	_ = b[(kc-1)*ldb+15]
	_ = c[3*ldc+15]
	if useAVX2 {
		tile4x16AVX2(&a[0], ars, aps, &b[0], ldb, &c[0], ldc, kc, skip)
		return
	}
	for r := 0; r < 4; r++ {
		cr := c[r*ldc : r*ldc+16]
		for p := 0; p < kc; p++ {
			o := r*ars + p*aps
			if skip && p%4 == 0 && a[o] == 0 && a[o+aps] == 0 && a[o+2*aps] == 0 && a[o+3*aps] == 0 {
				p += 3
				continue
			}
			axpy(a[o], b[p*ldb:p*ldb+16], cr)
		}
	}
}

// axpy4in computes y += a0·x0 + a1·x1 + a2·x2 + a3·x3 as four fma32 in that
// order: four streamed input rows accumulate into one output row held hot.
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
		y[i] = fma32(a3, x3[i], fma32(a2, x2[i], fma32(a1, x1[i], fma32(a0, x0[i], y[i]))))
	}
}

// dot3x4 computes nb blocks of twelve dot products — three A rows against
// four B rows each — in one call,
//
//	C[r·ldc+4t+j] = Σ_p A[r·lda+p] · B[(4t+j)·ldb+p]   for r < 3, j < 4, t < nb,
//
// each in Dot's order: the assembly holds the twelve sums' lanes in YMM
// registers over the 8·⌊k/8⌋ prefix, reduces each by HSUM4's tree and adds
// the k mod 8 tail after it; the Go loop is dot4's, once per row and block.
//
//photon:hotpath
func dot3x4(a []float32, lda int, b []float32, ldb int, c []float32, ldc, k, nb int) {
	if nb <= 0 {
		return
	}
	if lda < 0 || ldb < 0 || ldc < 0 || k < 0 {
		panic("tensor: dot3x4 bad stride or depth")
	}
	_ = c[2*ldc+4*nb-1]
	if k > 0 {
		_ = a[2*lda+k-1]
		_ = b[(4*nb-1)*ldb+k-1]
		if useAVX2 {
			dot3x4AVX2(&a[0], lda, &b[0], ldb, &c[0], ldc, k, nb)
			return
		}
	}
	for j := 0; j < 4*nb; j += 4 {
		b0, b1 := b[j*ldb:j*ldb+k], b[(j+1)*ldb:(j+1)*ldb+k]
		b2, b3 := b[(j+2)*ldb:(j+2)*ldb+k], b[(j+3)*ldb:(j+3)*ldb+k]
		for r := 0; r < 3; r++ {
			cr := c[r*ldc+j : r*ldc+j+4]
			cr[0], cr[1], cr[2], cr[3] = dot4(a[r*lda:r*lda+k], b0, b1, b2, b3)
		}
	}
}

// dot4 computes four dot products of x against y0..y3, each in Dot's order;
// the assembly makes one pass over x.
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
	return Dot(x, y0), Dot(x, y1), Dot(x, y2), Dot(x, y3)
}

// dot4x2 computes eight dot products — two A rows against four B rows — each
// in Dot's order; the assembly makes one pass, paying each B load once for
// two accumulator sets.
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
	s00, s01, s02, s03 = dot4(x0, y0, y1, y2, y3)
	s10, s11, s12, s13 = dot4(x1, y0, y1, y2, y3)
	return
}

// fma32 returns a·b + c rounded once to float32, the bits of VFMADD231SS.
// The product of two float32 is exact in float64, so the float64 sum s is
// the only other rounding. It misleads the float32 rounding only by landing
// exactly on a float32 midpoint that the exact sum is not on, and a midpoint
// anywhere in float32's range has its low 28 float64 mantissa bits clear.
//
//photon:hotpath
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b)) // converted, as every product here is: no fused instruction
	s := p + float64(c)
	if math.Float64bits(s)<<36 == 0 {
		s = fma32Midpoint(s, p, float64(c))
	}
	return float32(s)
}

// fma32Midpoint returns s = p + c rounded to float64, moved one float64 ulp
// toward the exact sum if s is a float32 midpoint the exact sum is not on.
// A midpoint m has its float32 neighbours at r = float32(m) and 2m − r, and
// TwoSum's error e is exactly (p + c) − s. A finite s that float32 rounds to
// ±Inf passes as a midpoint too: moving it toward the exact sum changes the
// rounding only at the MaxFloat32/Inf midpoint, where it must.
//
//photon:hotpath
func fma32Midpoint(s, p, c float64) float64 {
	r := float64(float32(s))
	if o := s + s - r; r == s || float64(float32(o)) != o {
		return s
	}
	t := s - p
	if e := (p - (s - t)) + (c - t); e != 0 {
		s = math.Nextafter(s, math.Copysign(math.Inf(1), e))
	}
	return s
}

package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// forEachKernelPath runs f on the Go loops and, where the CPU has them, on
// the assembly bodies. Flipping useAVX2 is safe between dispatches: the pool
// is idle whenever a kernel call has returned.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	t.Run("go", f)
	if !hasAVX2FMA() {
		t.Log("CPU lacks AVX2+FMA: assembly path not exercised")
		return
	}
	useAVX2 = true
	t.Run("avx2", f)
}

// requireAVX2 pins the assembly path for the rest of the test.
func requireAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2FMA() {
		t.Skip("CPU lacks AVX2+FMA")
	}
	saved := useAVX2
	t.Cleanup(func() { useAVX2 = saved })
	useAVX2 = true
}

// TestExistingSuitesOnBothKernelPaths reruns the package's kernel suites
// with the switch forced each way, so the Go reference keeps its coverage on
// machines where init selects the assembly.
func TestExistingSuitesOnBothKernelPaths(t *testing.T) {
	suites := []struct {
		name string
		f    func(*testing.T)
	}{
		{"MatMulMatchesNaive", TestMatMulMatchesNaive},
		{"MatMulOverwritesOutput", TestMatMulOverwritesOutput},
		{"MatMulTransA", TestMatMulTransA},
		{"MatMulTransAAccumAddsToExisting", TestMatMulTransAAccumAddsToExisting},
		{"MatMulTransB", TestMatMulTransB},
		{"DotAxpyScale", TestDotAxpyScale},
		{"MatMulTransposeProperty", TestMatMulTransposeProperty},
		{"BatchMatMulTransAMatchesNaive", TestBatchMatMulTransAMatchesNaive},
		{"CausalBatchKernelsMatchDense", TestCausalBatchKernelsMatchDense},
		{"ParallelKernelsLargeShapes", TestParallelKernelsLargeShapes},
		{"AttendDecodeMatchesReference", TestAttendDecodeMatchesReference},
		{"AttendDecodeMatchesTrainingKernels", TestAttendDecodeMatchesTrainingKernels},
		{"AttendDecodeIncrementalMatchesPrefill", TestAttendDecodeIncrementalMatchesPrefill},
		{"CausalSoftmaxGradMatchesOneRowLoop", TestCausalSoftmaxGradMatchesOneRowLoop},
	}
	forEachKernelPath(t, func(t *testing.T) {
		for _, s := range suites {
			t.Run(s.name, s.f)
		}
	})
}

// guarded returns a length-n slice starting at an odd offset inside a larger
// buffer whose other elements hold a sentinel, with values of either sign
// and magnitudes spanning 1e-3…1e3.
func guarded(rng *rand.Rand, n int) (buf, s []float32) {
	const sentinel = 12345.678
	off := 1 + 2*rng.Intn(3)
	buf = make([]float32, off+n+5)
	for i := range buf {
		buf[i] = sentinel
	}
	s = buf[off : off+n : off+n]
	for i := range s {
		v := float32(math.Pow(10, 6*rng.Float64()-3))
		if rng.Intn(2) == 0 {
			v = -v
		}
		s[i] = v
	}
	return buf, s
}

// checkGuards fails if anything outside s changed in buf.
func checkGuards(t *testing.T, what string, n int, buf, s []float32) {
	t.Helper()
	off := len(buf) - 5 - len(s)
	for i, v := range buf {
		if (i < off || i >= off+len(s)) && v != 12345.678 {
			t.Fatalf("%s n=%d: wrote outside its operand at buf[%d]", what, n, i)
		}
	}
}

// kernelCase is one micro-kernel called through its wrapper on nops slice
// operands of length n, the first outs of them written. run returns any
// scalar results.
type kernelCase struct {
	name   string
	nops   int
	outs   int
	driver int // the operand whose length the wrapper takes as n
	run    func(c [8]float32, ops [][]float32) []float32
}

var kernelCases = []kernelCase{
	{"axpy", 2, 1, 1,
		func(c [8]float32, o [][]float32) []float32 { axpy(c[0], o[1], o[0]); return nil }},
	{"axpy4in", 5, 1, 0,
		func(c [8]float32, o [][]float32) []float32 {
			axpy4in(c[0], c[1], c[2], c[3], o[1], o[2], o[3], o[4], o[0])
			return nil
		}},
	{"Dot", 2, 0, 0,
		func(_ [8]float32, o [][]float32) []float32 { return []float32{Dot(o[0], o[1])} }},
	{"dot4", 5, 0, 0,
		func(_ [8]float32, o [][]float32) []float32 {
			s0, s1, s2, s3 := dot4(o[0], o[1], o[2], o[3], o[4])
			return []float32{s0, s1, s2, s3}
		}},
	{"dot4x2", 6, 0, 0,
		func(_ [8]float32, o [][]float32) []float32 {
			s00, s01, s02, s03, s10, s11, s12, s13 := dot4x2(o[0], o[1], o[2], o[3], o[4], o[5])
			return []float32{s00, s01, s02, s03, s10, s11, s12, s13}
		}},
}

// TestAsmKernelsMatchGo compares each assembly micro-kernel with the Go loop
// it stands in for, for every length 0…67, on operands at odd offsets: the
// same bits for every result, nothing written outside the outputs.
func TestAsmKernelsMatchGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(18))
	for _, kc := range kernelCases {
		for n := 0; n <= 67; n++ {
			var coef [8]float32
			for i := range coef {
				coef[i] = float32(rng.NormFloat64())
			}
			bufs, ops := make([][]float32, kc.nops), make([][]float32, kc.nops)
			ref, before := make([][]float32, kc.nops), make([][]float32, kc.nops)
			for i := range ops {
				bufs[i], ops[i] = guarded(rng, n)
				ref[i], before[i] = slices.Clone(ops[i]), slices.Clone(ops[i])
			}
			useAVX2 = false
			want := kc.run(coef, ref)
			useAVX2 = true
			got := kc.run(coef, ops)
			if r := sameBits(got, want); r >= 0 {
				t.Fatalf("%s n=%d result %d: asm %g, go %g", kc.name, n, r, got[r], want[r])
			}
			for o := 0; o < kc.nops; o++ {
				checkGuards(t, kc.name, n, bufs[o], ops[o])
				if o >= kc.outs {
					if i := sameBits(ops[o], before[o]); i >= 0 {
						t.Fatalf("%s n=%d: input operand %d modified at %d", kc.name, n, o, i)
					}
				} else if i := sameBits(ops[o], ref[o]); i >= 0 {
					t.Fatalf("%s n=%d out %d[%d]: asm %g, go %g", kc.name, n, o, i, ops[o][i], ref[o][i])
				}
			}
		}
	}
}

// TestKernelsPanicOnShortOperand pins the wrappers' contract on both paths:
// an operand shorter than the driving length panics before anything is read.
func TestKernelsPanicOnShortOperand(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for _, kc := range kernelCases {
			for short := 0; short < kc.nops; short++ {
				if short == kc.driver {
					continue
				}
				for _, n := range []int{1, 8, 13} {
					ops := make([][]float32, kc.nops)
					for i := range ops {
						_, ops[i] = guarded(rng, n)
					}
					_, ops[short] = guarded(rng, n-1)
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("%s n=%d: no panic with operand %d one short", kc.name, n, short)
							}
						}()
						kc.run([8]float32{1, 1, 1, 1, 1, 1, 1, 1}, ops)
					}()
				}
			}
		}
		for _, e := range elementwise {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: no panic on length mismatch", e.name)
					}
				}()
				e.op(make([]float32, 9), make([]float32, 8))
			}()
		}
		// The AdamW update reads grad, m and v over data's length, and
		// GELUWithGrad writes y and dg over x's.
		for short := 1; short < 4; short++ {
			for _, n := range []int{1, 8, 13} {
				ops := make([][]float32, 4)
				for i := range ops {
					_, ops[i] = guarded(rng, n)
				}
				_, ops[short] = guarded(rng, n-1)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("AdamW n=%d: no panic with operand %d one short", n, short)
						}
					}()
					AdamW(ops[0], ops[1], ops[2], ops[3], &AdamWFactors{B1: 0.9, OB1: 0.1, B2: 0.95, OB2: 0.05, InvC1: 1, InvC2: 1, LR: 1})
				}()
			}
		}
		for short := 0; short < 2; short++ {
			for _, n := range []int{1, 8, 13} {
				ops := [][]float32{make([]float32, n), make([]float32, n)}
				ops[short] = ops[short][: n-1 : n-1]
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("GELUWithGrad n=%d: no panic with output %d one short", n, short)
						}
					}()
					GELUWithGrad(ops[0], ops[1], make([]float32, n))
				}()
			}
		}
		// dot3x4 at k = 5 over two blocks with rows of A 9 apart, B 7 and
		// C 11: each operand one element short of what the call reads.
		const k3, lda3, ldb3, ldc3, nb3 = 5, 9, 7, 11, 2
		for _, tc := range []struct {
			what       string
			la, lb, lc int
		}{
			{"a short", 2*lda3 + k3 - 1, (4*nb3-1)*ldb3 + k3, 2*ldc3 + 4*nb3},
			{"b short", 2*lda3 + k3, (4*nb3-1)*ldb3 + k3 - 1, 2*ldc3 + 4*nb3},
			{"c short", 2*lda3 + k3, (4*nb3-1)*ldb3 + k3, 2*ldc3 + 4*nb3 - 1},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("dot3x4 %s: no panic", tc.what)
					}
				}()
				dot3x4(make([]float32, tc.la), lda3, make([]float32, tc.lb), ldb3, make([]float32, tc.lc), ldc3, k3, nb3)
			}()
		}
		// tile4x16 at kc = 5 with rows of A 9 apart, B 16 and C 20: each
		// operand one element short of its block, and a skip panel that is
		// not whole groups of four.
		const kc, ars, ldb, ldc = 5, 9, 16, 20
		na, nb, nc := 3*ars+kc, (kc-1)*ldb+16, 3*ldc+16
		for _, tc := range []struct {
			what       string
			la, lb, lc int
			skip       bool
		}{
			{"a short", na - 1, nb, nc, false}, {"b short", na, nb - 1, nc, false},
			{"c short", na, nb, nc - 1, false}, {"skip with ars ≠ 1", na, nb, nc, true},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("tile4x16 %s: no panic", tc.what)
					}
				}()
				tile4x16(make([]float32, tc.la), ars, 1, make([]float32, tc.lb), ldb, make([]float32, tc.lc), ldc, kc, tc.skip)
			}()
		}
	})
}

// TestTile4x16MatchesGo compares tile4x16's assembly with its Go loop for
// every kc 0…67, in the A·B layout (A's rows contiguous) and the skipping
// Aᵀ·B layout (A's four values at each p contiguous, a third of the row
// groups all zero), with row strides wider than the block and operands at
// odd offsets: the same bits for every element, nothing written outside the
// block, and each row bitwise the chain of one axpy per p that the remainder
// loops compute.
func TestTile4x16MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(23))
	const ldb, ldc = 21, 19
	for _, skip := range []bool{false, true} {
		for kc := 0; kc <= 67; kc++ {
			if skip && kc%4 != 0 {
				continue
			}
			ars, aps := kc+3, 1
			if skip {
				ars, aps = 1, 7
			}
			last := max(kc, 1) - 1
			_, a := guarded(rng, 3*ars+last*aps+1)
			_, b := guarded(rng, last*ldb+16)
			cbuf, c := guarded(rng, 3*ldc+16)
			zero4 := func(o int) bool {
				return a[o] == 0 && a[o+aps] == 0 && a[o+2*aps] == 0 && a[o+3*aps] == 0
			}
			if skip {
				for o := 0; o < kc*aps; o += 4 * aps {
					for r := 0; r < 4; r++ {
						if rng.Intn(3) == 0 {
							for q := 0; q < 4; q++ {
								a[o+r+q*aps] = 0
							}
						}
					}
				}
			}
			before, ref, chain := slices.Clone(c), slices.Clone(c), slices.Clone(c)
			useAVX2 = false
			tile4x16(a, ars, aps, b, ldb, ref, ldc, kc, skip)
			useAVX2 = true
			tile4x16(a, ars, aps, b, ldb, c, ldc, kc, skip)
			checkGuards(t, "tile4x16", kc, cbuf, c)
			for r := 0; r < 4; r++ {
				cr := chain[r*ldc : r*ldc+16]
				for p := 0; p < kc; p++ {
					if skip && p%4 == 0 && zero4(r*ars+p*aps) {
						p += 3
						continue
					}
					axpy(a[r*ars+p*aps], b[p*ldb:p*ldb+16], cr)
				}
			}
			for x := range c {
				r, j := x/ldc, x%ldc
				if j >= 16 {
					if c[x] != before[x] {
						t.Fatalf("tile4x16 kc=%d skip=%v: wrote C[%d][%d] outside the block", kc, skip, r, j)
					}
					continue
				}
				if math.Float32bits(c[x]) != math.Float32bits(ref[x]) {
					t.Fatalf("tile4x16 kc=%d skip=%v C[%d][%d]: asm %g, go %g", kc, skip, r, j, c[x], ref[x])
				}
				if math.Float32bits(c[x]) != math.Float32bits(chain[x]) {
					t.Fatalf("tile4x16 kc=%d skip=%v C[%d][%d]: %g is not the axpy chain's %g", kc, skip, r, j, c[x], chain[x])
				}
			}
		}
	}
}

// checkRowTile runs axpyRow(ai, bd, ci, j0, p0, p1) on the assembly and
// fails unless ci comes out bitwise the chain of one AVX2 axpy per p (the
// chain the remainder loops computed before the row tile), the Go loop's
// bits (any NaN matching any NaN, as in FuzzFMA32: the Go loop and
// VFMADD231 may pick different NaN operands to propagate), ci[:j0] as it
// was, and nothing outside ci in cbuf written.
func checkRowTile(t *testing.T, what string, ai, bd, cbuf, ci []float32, j0, p0, p1 int) {
	t.Helper()
	n := len(ci)
	before, ref, chain := slices.Clone(ci), slices.Clone(ci), slices.Clone(ci)
	useAVX2 = false
	axpyRow(ai, bd, ref, j0, p0, p1)
	useAVX2 = true
	for p := p0; p < p1; p++ {
		axpy(ai[p], bd[p*n+j0:(p+1)*n], chain[j0:])
	}
	axpyRow(ai, bd, ci, j0, p0, p1)
	checkGuards(t, what, n, cbuf, ci)
	for j, v := range ci {
		got := math.Float32bits(v)
		switch {
		case j < j0 && got != math.Float32bits(before[j]):
			t.Fatalf("%s: wrote ci[%d] before j0 = %d", what, j, j0)
		case got != math.Float32bits(chain[j]):
			t.Fatalf("%s ci[%d]: %#x is not the axpy chain's %#x", what, j, got, math.Float32bits(chain[j]))
		case got != math.Float32bits(ref[j]) && !(v != v && ref[j] != ref[j]):
			t.Fatalf("%s ci[%d]: asm %#x, go %#x", what, j, got, math.Float32bits(ref[j]))
		}
	}
}

// TestRowTileMatchesGo holds axpyRow's register tile to the Go loop and to
// the chain of one axpy per p, for every kc 0…67 and one past kcBlock, over
// row lengths around the tile's 16- and 32-column chunks, with j0 and p0
// past the start and operands at odd offsets inside guard words. Half the
// cases plant a zero a[p] over an infinite B value (the tile adds the
// 0·Inf term, as every kernel of the axpy family does) and signed zeros,
// infinities and NaN elsewhere.
func TestRowTileMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(53))
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	kcs := []int{kcBlock + 3}
	for kc := 0; kc <= 67; kc++ {
		kcs = append(kcs, kc)
	}
	ns := []int{16, 17, 31, 32, 33, 48, 64, 65, 200}
	for n := 1; n <= 15; n++ {
		ns = append(ns, n)
	}
	for _, kc := range kcs {
		for _, n := range ns {
			j0s := []int{0}
			if n > 1 {
				j0s = append(j0s, 1+rng.Intn(n-1))
			}
			for _, j0 := range j0s {
				p0 := 1 + rng.Intn(3)
				p1 := p0 + kc
				_, ai := guarded(rng, p1+2)
				_, bd := guarded(rng, (p1+1)*n)
				cbuf, ci := guarded(rng, n)
				for p := range ai {
					if rng.Intn(4) == 0 {
						ai[p] = 0
					}
				}
				if kc > 0 && rng.Intn(2) == 0 {
					p, j := p0+rng.Intn(kc), j0+rng.Intn(n-j0)
					ai[p], bd[p*n+j] = 0, float32(math.Inf(1))
					ai[p0+rng.Intn(kc)] = specials[rng.Intn(len(specials))]
					bd[(p0+rng.Intn(kc))*n+rng.Intn(n)] = specials[rng.Intn(len(specials))]
					ci[rng.Intn(n)] = specials[rng.Intn(len(specials))]
				}
				checkRowTile(t, fmt.Sprintf("axpyRow kc=%d n=%d j0=%d p0=%d", kc, n, j0, p0), ai, bd, cbuf, ci, j0, p0, p1)
			}
		}
	}
}

// FuzzRowTile holds axpyRow's register tile to checkRowTile's rules on any
// operand bits: the input picks kc (up to past kcBlock), the row length n
// (up to three 32-column chunks, a 16-column one and a tail), j0, and the
// values, read as little-endian float32 words, cycled over ai, B and ci —
// NaN payloads, infinities, signed zeros and subnormals included.
func FuzzRowTile(f *testing.F) {
	word := func(v float32) []byte { return binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)) }
	f.Add(uint8(5), uint8(47), uint8(3), slices.Concat(word(1.5), word(0), word(float32(math.Inf(1))), word(-2)))
	f.Add(uint8(130), uint8(95), uint8(0), slices.Concat(word(0x1p-140), word(float32(math.Copysign(0, -1))), word(3)))
	f.Add(uint8(1), uint8(15), uint8(15), slices.Concat(word(float32(math.NaN())), word(-0.25), word(7)))
	if !hasAVX2FMA() {
		f.Skip("CPU lacks AVX2+FMA")
	}
	f.Fuzz(func(t *testing.T, kcIn, nIn, j0In uint8, vals []byte) {
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		kc, n := int(kcIn)%(kcBlock+8), 1+int(nIn)%96
		j0, p0 := int(j0In)%n, 1
		if len(vals) < 4 {
			vals = word(1)
		}
		w, next := len(vals)/4, 0
		fill := func(s []float32) {
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(vals[4*(next%w):]) ^ uint32(next/w))
				next++
			}
		}
		rng := rand.New(rand.NewSource(int64(kc*1000 + n)))
		_, ai := guarded(rng, p0+kc)
		_, bd := guarded(rng, (p0+kc)*n)
		cbuf, ci := guarded(rng, n)
		fill(ai)
		fill(bd)
		fill(ci)
		checkRowTile(t, fmt.Sprintf("axpyRow kc=%d n=%d j0=%d", kc, n, j0), ai, bd, cbuf, ci, j0, p0, p0+kc)
	})
}

// TestDot3x4MatchesGo compares dot3x4's assembly with its Go loop for every
// depth k 0…67 over 1, 2 and 5 column blocks, with row strides wider than k
// and operands at odd offsets inside guard words: the same bits for every
// result, nothing written outside the twelve results of each block, and each
// row's block bitwise the dot4 call the remainder rows make.
func TestDot3x4MatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(24))
	for _, nb := range []int{1, 2, 5} {
		for k := 0; k <= 67; k++ {
			lda, ldb, ldc := k+3, k+5, 4*nb+3
			abuf, a := guarded(rng, 2*lda+k)
			bbuf, b := guarded(rng, (4*nb-1)*ldb+k)
			cbuf, c := guarded(rng, 2*ldc+4*nb)
			a0, b0, before, ref := slices.Clone(a), slices.Clone(b), slices.Clone(c), slices.Clone(c)
			useAVX2 = false
			dot3x4(a, lda, b, ldb, ref, ldc, k, nb)
			useAVX2 = true
			dot3x4(a, lda, b, ldb, c, ldc, k, nb)
			checkGuards(t, "dot3x4 a", k, abuf, a)
			checkGuards(t, "dot3x4 b", k, bbuf, b)
			checkGuards(t, "dot3x4 c", k, cbuf, c)
			if sameBits(a, a0) >= 0 || sameBits(b, b0) >= 0 {
				t.Fatalf("dot3x4 k=%d nb=%d: modified an input", k, nb)
			}
			for x := range c {
				r, j := x/ldc, x%ldc
				if j >= 4*nb {
					if c[x] != before[x] {
						t.Fatalf("dot3x4 k=%d nb=%d: wrote C[%d][%d] outside the blocks", k, nb, r, j)
					}
					continue
				}
				if math.Float32bits(c[x]) != math.Float32bits(ref[x]) {
					t.Fatalf("dot3x4 k=%d nb=%d C[%d][%d]: asm %g, go %g", k, nb, r, j, c[x], ref[x])
				}
			}
			for r := 0; r < 3; r++ {
				ar := a[r*lda : r*lda+k]
				for j := 0; j < 4*nb; j += 4 {
					row := func(q int) []float32 { return b[(j+q)*ldb : (j+q)*ldb+k] }
					s0, s1, s2, s3 := dot4(ar, row(0), row(1), row(2), row(3))
					if q := sameBits(c[r*ldc+j:r*ldc+j+4], []float32{s0, s1, s2, s3}); q >= 0 {
						t.Fatalf("dot3x4 k=%d nb=%d C[%d][%d]: %g is not dot4's sum", k, nb, r, j+q, c[r*ldc+j+q])
					}
				}
			}
		}
	}
}

type elemOp struct {
	name string
	op   func(dst, src []float32)
}

// elementwise are the length-checked two-operand helpers; the first three
// involve no multiply-add.
var elementwise = []elemOp{
	{"Add", Add}, {"Sub", Sub}, {"Mul", Mul},
	{"Axpy", func(dst, src []float32) { Axpy(0.7, src, dst) }},
}

// TestElementwiseBitwiseEqualGo: Add, Sub, Mul and Scale involve no
// fused multiply-add, so the vector bodies must reproduce the Go loops bit
// for bit — every length 0…67, unaligned starts.
func TestElementwiseBitwiseEqualGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(20))
	unfused := append(elementwise[:3:3], elemOp{"Scale", func(dst, _ []float32) { Scale(-1.7, dst) }})
	for _, e := range unfused {
		for n := 0; n <= 67; n++ {
			dbuf, dst := guarded(rng, n)
			_, src := guarded(rng, n)
			want := slices.Clone(dst)
			useAVX2 = false
			e.op(want, src)
			useAVX2 = true
			e.op(dst, src)
			checkGuards(t, e.name, n, dbuf, dst)
			if i := sameBits(dst, want); i >= 0 {
				t.Fatalf("%s n=%d [%d]: asm %x, go %x", e.name, n, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// adamwGrads fills g with gradients for TestAdamWBitwiseEqualGo: mostly
// ordinary values, and huge, denormal, zero, NaN and ±Inf ones.
func adamwGrads(rng *rand.Rand, g []float32) {
	specials := []float32{0, float32(math.Copysign(0, -1)), 3e38, -3e38, 1e30, 1e-40, -1e-45, 1e-20,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range g {
		if rng.Intn(4) == 0 {
			g[i] = specials[rng.Intn(len(specials))]
		} else {
			g[i] = float32(rng.NormFloat64() * 0.01)
		}
	}
}

// TestAdamWBitwiseEqualGo holds AdamW's eight-lane body to its Go loop bit
// for bit, every length 0…67, all four operands at odd offsets inside guard
// words: parameters, both moments and nothing else written, with v = 0 on
// the first step and gradients that are huge, denormal, NaN or infinite.
func TestAdamWBitwiseEqualGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(27))
	for _, step := range []int{1, 2, 40} {
		b1, b2, lr, wd := 0.9, 0.95, 3e-3, 0.1
		f := AdamWFactors{B1: float32(b1), OB1: float32(1 - b1), B2: float32(b2), OB2: float32(1 - b2),
			InvC1: float32(1 / (1 - math.Pow(b1, float64(step)))), InvC2: float32(1 / (1 - math.Pow(b2, float64(step)))),
			LR: float32(lr), WD: float32(lr * wd), Eps: 1e-8}
		for n := 0; n <= 67; n++ {
			var bufs, ops [4][]float32
			for i := range ops {
				bufs[i], ops[i] = guarded(rng, n)
			}
			RandNormal(rng, ops[0], 0, 0.05)
			adamwGrads(rng, ops[1])
			if step == 1 {
				clear(ops[2])
				clear(ops[3])
			} else {
				RandNormal(rng, ops[2], 0, 0.01)
				for i := range ops[3] {
					ops[3][i] = float32(math.Abs(rng.NormFloat64()) * 1e-4)
				}
			}
			var want [4][]float32
			for i := range ops {
				want[i] = slices.Clone(ops[i])
			}
			useAVX2 = false
			AdamW(want[0], want[1], want[2], want[3], &f)
			useAVX2 = true
			AdamW(ops[0], ops[1], ops[2], ops[3], &f)
			for i, name := range []string{"data", "grad", "m", "v"} {
				checkGuards(t, "AdamW "+name, n, bufs[i], ops[i])
				if j := sameBits(ops[i], want[i]); j >= 0 {
					t.Fatalf("AdamW step %d n=%d %s[%d]: asm %#x, go %#x (g %g)", step, n, name, j,
						math.Float32bits(ops[i][j]), math.Float32bits(want[i][j]), want[1][j])
				}
			}
		}
	}
}

// poison zeroes a scattering of a's entries and plants ±Inf and NaN in b, so
// a row's 0·Inf terms show whether a kernel skipped them.
func poison(rng *rand.Rand, a, b *Matrix) {
	for i := range a.Data {
		if rng.Intn(3) == 0 {
			a.Data[i] = 0
		}
	}
	for _, v := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		b.Data[rng.Intn(len(b.Data))] = v
	}
}

// TestTileInvarianceBitwise pins the numerics rule of kernels.go: on either
// path, row i of every product is bitwise what evaluating row i alone gives —
// whichever tile, pair, remainder row, vector lane or pool band computed it —
// at GOMAXPROCS 1 and 2, and with non-finite inputs too.
func TestTileInvarianceBitwise(t *testing.T) {
	forEachKernelPath(t, testTileInvarianceBitwise)
}

func testTileInvarianceBitwise(t *testing.T) {
	// {13, 37, 16} through {8, 5, 32} reach tile4x16: four rows or more, n a
	// multiple of 16 (causal items of head dim 16 among them) and k not
	// always one of 4. The next three put attention's head dims (k = 16: two
	// 8-lane chunks and no tail; k = 8: one) under dot3x4 in the causal Q·Kᵀ
	// triangle, with rows left over after the triples in two of them. The
	// last four are a decode step's one to three rows a shard over the serve
	// model's weight shapes (QKV, FC1, FC2, output projection): every row
	// runs axpyRow's register tile.
	shapes := [][3]int{{11, 29, 37}, {7, 13, 19}, {5, 131, 9}, {37, 67, 45}, {6, 7, 3},
		{13, 37, 16}, {9, 131, 48}, {21, 64, 64}, {8, 5, 32},
		{12, 16, 16}, {14, 8, 32}, {25, 16, 19},
		{1, 64, 192}, {2, 64, 256}, {3, 256, 64}, {2, 64, 64}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, withNaN := range []bool{false, true} {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				rng := rand.New(rand.NewSource(int64(m*1000 + k)))
				fail := func(what string, i, j int) {
					t.Fatalf("%s %dx%dx%d procs=%d nan=%v: row %d differs from its solo evaluation at column %d",
						what, m, k, n, procs, withNaN, i, j)
				}

				a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
				if withNaN {
					poison(rng, a, b)
				}
				c0 := randMatrix(rng, m, n)
				c := NewMatrix(m, n)
				MatMul(c, a, b)
				for i := 0; i < m; i++ {
					ai := FromSlice(1, k, a.Row(i))
					solo := NewMatrix(1, n)
					MatMul(solo, ai, b)
					if j := sameBits(c.Row(i), solo.Data); j >= 0 {
						fail("MatMul", i, j)
					}
				}

				bt := randMatrix(rng, n, k)
				if withNaN {
					poison(rng, a, bt)
				}
				MatMulTransB(c, a, bt)
				for i := 0; i < m; i++ {
					solo := NewMatrix(1, n)
					MatMulTransB(solo, FromSlice(1, k, a.Row(i)), bt)
					if j := sameBits(c.Row(i), solo.Data); j >= 0 {
						fail("MatMulTransB", i, j)
					}
				}

				at := randMatrix(rng, k, m) // C[m,n] += atᵀ·b
				if withNaN {
					poison(rng, at, b)
					// One row's all-zero group of four p over a B row holding
					// Inf: the row skips the group in a tile as alone.
					if k >= 4 {
						i, g := rng.Intn(max(m&^3, 1)), 4*rng.Intn(k/4)
						for p := g; p < g+4; p++ {
							at.Data[p*m+i] = 0
						}
						b.Data[(g+rng.Intn(4))*n+rng.Intn(n)] = float32(math.Inf(1))
					}
				}
				acc := c0.Clone()
				MatMulTransAAccum(acc, at, b)
				for i := 0; i < m; i++ {
					col := NewMatrix(k, 1)
					for p := 0; p < k; p++ {
						col.Data[p] = at.At(p, i)
					}
					solo := FromSlice(1, n, slices.Clone(c0.Row(i)))
					MatMulTransAAccum(solo, col, b)
					if j := sameBits(acc.Row(i), solo.Data); j >= 0 {
						fail("MatMulTransAAccum", i, j)
					}
				}

				// Causal batched products: items of [m,m]·[m,n] and [m,k]·[m,k]ᵀ.
				const batch = 3
				p, v := randMatrix(rng, batch*m, m), randMatrix(rng, batch*m, n)
				q, kk := randMatrix(rng, batch*m, k), randMatrix(rng, batch*m, k)
				if withNaN {
					poison(rng, p, v)
					poison(rng, q, kk)
				}
				ctx, sc := NewMatrix(batch*m, n), NewMatrix(batch*m, m)
				BatchMatMulCausal(ctx, p, v, batch)
				BatchMatMulTransBCausal(sc, q, kk, batch)
				for it := 0; it < batch; it++ {
					for i := 0; i < m; i++ {
						r, end := it*m+i, i+1
						solo := NewMatrix(1, n)
						MatMul(solo, FromSlice(1, end, p.Row(r)[:end]), FromSlice(end, n, v.Data[it*m*n:(it*m+end)*n]))
						if j := sameBits(ctx.Row(r), solo.Data); j >= 0 {
							fail("BatchMatMulCausal", r, j)
						}
						solo = NewMatrix(1, end)
						MatMulTransB(solo, FromSlice(1, k, q.Row(r)), FromSlice(end, k, kk.Data[it*m*k:(it*m+end)*k]))
						if j := sameBits(sc.Row(r)[:end], solo.Data); j >= 0 {
							fail("BatchMatMulTransBCausal", r, j)
						}
					}
				}
			}
		}
	}
}

// TestAttendDecodeZeroProbPositionIndependent: a cached key whose attention
// probability underflows to exactly 0 still multiplies its value row, whether
// it falls in a 4-row group or in the remainder — an Inf there poisons the
// context either way, on either path.
func TestAttendDecodeZeroProbPositionIndependent(t *testing.T) {
	forEachKernelPath(t, testAttendDecodeZeroProb)
}

func testAttendDecodeZeroProb(t *testing.T) {
	const d, krows = 8, 6
	for _, infRow := range []int{0, 4} { // 0: inside the group of four; 4: remainder
		rng := rand.New(rand.NewSource(22))
		it := DecodeItem{Q: randSlice(rng, d), K: randSlice(rng, krows*d), V: randSlice(rng, krows*d),
			Probs: make([]float32, krows), Ctx: make([]float32, d), QRows: 1, KRows: krows, Slope: 200}
		for x := 0; x < d; x++ {
			it.V[infRow*d+x] = float32(math.Inf(1))
		}
		AttendDecode([]DecodeItem{it}, 0.1)
		if it.Probs[infRow] != 0 {
			t.Fatalf("probability of key %d is %g, want an exact 0", infRow, it.Probs[infRow])
		}
		for x, v := range it.Ctx {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("Inf value row %d: ctx[%d] = %g, want NaN from 0·Inf", infRow, x, v)
			}
		}
	}
}

// FuzzFMA32 holds fma32 to VFMADD231SS, axpyAVX2's scalar tail at n = 1,
// bit for bit (any NaN matches any NaN). The seeds are the cases random
// operands practically never reach: float64 sums that land exactly on a
// float32 midpoint the exact sum is not on — normal, subnormal, at the
// MaxFloat32/Inf edge, and with c far below the product — true midpoints,
// and signed zeros, NaN and infinities.
func FuzzFMA32(f *testing.F) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, s := range [][3]float32{
		// 2⁻²⁴(1+2⁻¹⁵)·(1−2⁻¹⁵) + (1+2⁻²³): VFMADD231SS 0x3f800001, the float64
		// sum rounded again 0x3f800002.
		{0x1p-24 * (1 + 0x1p-15), 1 - 0x1p-15, 1 + 0x1p-23},
		{-0x1p-24 * (1 + 0x1p-15), 1 - 0x1p-15, -(1 + 0x1p-23)},
		// 2⁻⁷⁵(1+2⁻¹⁶)·2⁻⁷⁵(1−2⁻¹⁶) + 2⁻¹²⁷+2⁻¹⁴⁹: a subnormal result.
		{0x1p-75 * (1 + 0x1p-16), 0x1p-75 * (1 - 0x1p-16), 0x1p-127 + 0x1p-149},
		// 2⁵²(1+2⁻¹⁶)·2⁵¹(1−2⁻¹⁶) + MaxFloat32: MaxFloat32, not +Inf.
		{0x1p52 * (1 + 0x1p-16), 0x1p51 * (1 - 0x1p-16), math.MaxFloat32},
		// (1+2⁻¹²)² is a midpoint; 2⁻¹⁴⁹ above it rounds up, not to even.
		{1 + 0x1p-12, 1 + 0x1p-12, 0x1p-149},
		{1 + 0x1p-12, 1 + 0x1p-12, -0x1p-149},
		{1 + 0x1p-12, 1 + 0x1p-12, 0}, // a true midpoint: to even
		{0, 1, float32(math.Copysign(0, -1))}, {float32(math.Copysign(0, -1)), 1, float32(math.Copysign(0, -1))},
		{2, -3, 6}, {0, inf, 1}, {nan, 1, 1}, {1, 1, nan}, {inf, 1, -inf}, {inf, 2, 1}, {1, -1, -inf},
	} {
		f.Add(s[0], s[1], s[2])
	}
	if !hasAVX2FMA() {
		f.Skip("CPU lacks AVX2+FMA")
	}
	f.Fuzz(func(t *testing.T, a, b, c float32) {
		want := c
		axpyAVX2(a, &b, &want, 1)
		got := fma32(a, b, c)
		if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
			t.Fatalf("fma32(%#x, %#x, %#x) = %#x, VFMADD231SS %#x", math.Float32bits(a), math.Float32bits(b),
				math.Float32bits(c), math.Float32bits(got), math.Float32bits(want))
		}
	})
}

// BenchmarkFMAPeak measures the core's AVX2 FMA roofline: ten independent
// 8-lane VFMADD231PS chains and no memory traffic. Achieved / peak for the
// kernels is BenchmarkMatMul's GFLOP/s over this one's.
func BenchmarkFMAPeak(b *testing.B) {
	if !hasAVX2FMA() {
		b.Skip("CPU lacks AVX2+FMA")
	}
	const iters = 1 << 16
	for i := 0; i < b.N; i++ {
		fmaPeakAVX2(iters)
	}
	reportGFLOPs(b, 160*iters)
}

// foldMarksInputs fills x with FoldMarks operands: ordinary values, and ±0,
// denormals, ±Inf and NaNs of two payloads and both signs, so that some
// sums are NaN from one operand and some from both.
func foldMarksInputs(rng *rand.Rand, x []float32) {
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-40, -1e-45, 3e38, -3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc00000),
		math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001), 3e-3, -3e-3}
	for i := range x {
		if rng.Intn(3) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		} else {
			x[i] = float32(rng.NormFloat64() * 0.01)
		}
	}
}

// TestFoldMarksBitwiseEqualGo holds FoldMarks' assembly body to its Go loop,
// and both to the definition, at every length 0…200 (every length mod 64,
// over one to four words) in guard words: the sums' bits, both bitmaps and
// both counts, for brackets drawn from the sums' own keys (so that keys
// equal to a bound are marked), the whole key range, an empty one and bounds
// past the largest key.
func TestFoldMarksBitwiseEqualGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(52))
	key := func(x float32) uint32 { return math.Float32bits(x) & 0x7fffffff }
	for n := 0; n <= 200; n++ {
		words := (n + 63) / 64
		abuf, acc := guarded(rng, n)
		vbuf, v := guarded(rng, n)
		foldMarksInputs(rng, acc)
		foldMarksInputs(rng, v)
		sums := make([]float32, n)
		for i := range sums {
			sums[i] = v[i] + acc[i]
		}
		brackets := [][2]uint32{{0, math.MaxInt32}, {0, 0}, {5, 4}, {math.MaxUint32, math.MaxUint32}, {0, math.MaxUint32}}
		if n > 0 {
			a, b := key(sums[rng.Intn(n)]), key(sums[rng.Intn(n)])
			brackets = append(brackets, [2]uint32{min(a, b), max(a, b)}, [2]uint32{a, a})
		}
		for _, br := range brackets {
			lo, hi := br[0], br[1]
			var wantAbove, wantWithin [4]uint64
			var wantNA, wantNW int
			for i, s := range sums {
				switch k := key(s); {
				case k > hi:
					wantAbove[i/64] |= 1 << (i % 64)
					wantNA++
				case k >= lo:
					wantWithin[i/64] |= 1 << (i % 64)
					wantNW++
				}
			}
			for _, avx := range []bool{false, true} {
				useAVX2 = avx
				buf := slices.Clone(abuf)
				a := buf[len(buf)-5-n : len(buf)-5 : len(buf)-5]
				marks := make([]uint64, 2*words+2)
				for i := range marks {
					marks[i] = rng.Uint64() // overwritten, but for the guard word past each bitmap
				}
				guard := [2]uint64{marks[words], marks[2*words+1]}
				above, within := marks[:words], marks[words+1:2*words+1]
				nA, nW := FoldMarks(a, v, lo, hi, above, within)
				checkGuards(t, "FoldMarks acc", n, buf, a)
				if marks[words] != guard[0] || marks[2*words+1] != guard[1] {
					t.Fatalf("avx2=%v n=%d: wrote past a bitmap", avx, n)
				}
				if j := sameBits(a, sums); j >= 0 {
					t.Fatalf("avx2=%v n=%d [%d]: sum %#x, v+acc %#x", avx, n, j, math.Float32bits(a[j]), math.Float32bits(sums[j]))
				}
				if nA != wantNA || nW != wantNW || !slices.Equal(above, wantAbove[:words]) || !slices.Equal(within, wantWithin[:words]) {
					t.Fatalf("avx2=%v n=%d bracket [%#x, %#x]: above %x (%d) within %x (%d), want %x (%d) and %x (%d)",
						avx, n, lo, hi, above, nA, within, nW, wantAbove[:words], wantNA, wantWithin[:words], wantNW)
				}
			}
		}
		checkGuards(t, "FoldMarks v", n, vbuf, v)
	}
}

// TestAdamWFreshIsZeroedState: a Fresh step over moments holding anything,
// NaN included, computes the bits a step over zeroed moments computes, on
// both paths and at every length 0…67 — −0 gradients included, whose
// moments must come out +0.
func TestAdamWFreshIsZeroedState(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(52))
		f := AdamWFactors{B1: 0.9, OB1: 0.1, B2: 0.95, OB2: 0.05, InvC1: 10, InvC2: 20, LR: 3e-3, WD: 3e-4, Eps: 1e-8}
		for n := 0; n <= 67; n++ {
			data, grad := make([]float32, n), make([]float32, n)
			RandNormal(rng, data, 0, 0.05)
			adamwGrads(rng, grad)
			for i := range grad {
				if rng.Intn(8) == 0 {
					grad[i] = float32(math.Copysign(0, -1))
				}
			}
			want, wm, wv := slices.Clone(data), make([]float32, n), make([]float32, n)
			zero := f
			AdamW(want, grad, wm, wv, &zero)
			got, m, v := slices.Clone(data), make([]float32, n), make([]float32, n)
			for i := range m {
				m[i], v[i] = float32(math.NaN()), float32(rng.NormFloat64())
			}
			fresh := f
			fresh.Fresh = true
			AdamW(got, grad, m, v, &fresh)
			for i, name := range []string{"data", "m", "v"} {
				a, b := [][]float32{got, m, v}[i], [][]float32{want, wm, wv}[i]
				if j := sameBits(a, b); j >= 0 {
					t.Fatalf("n=%d %s[%d]: fresh %#x, zeroed %#x (g %g)", n, name, j, math.Float32bits(a[j]), math.Float32bits(b[j]), grad[j])
				}
			}
		}
	})
}

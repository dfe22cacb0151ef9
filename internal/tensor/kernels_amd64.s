// AVX2+FMA bodies for the micro-kernels of kernels.go and the elementwise
// helpers of tensor.go. Declarations are in kernels_amd64.go; the Go loops
// beside each wrapper are the reference and what every other machine runs.
//
// Numerics, which the tile-invariance tests pin:
//   - axpy family (axpy, axpy4in, tile4x16): every output element is one
//     chain of VFMADD231 in p order, the same chain in the 8-lane body, the
//     scalar tail and the 4×16 register tile, so an element's value does not
//     depend on which kernel (tile, remainder row or column) or which lane
//     produced it. A term is skipped only where the Go loops' rule says so
//     (tile4x16's skip mode), never by the vector width.
//   - dot family (Dot, dot4, dot4x2, dot3x4): element i of the 8·⌊n/8⌋ prefix
//     accumulates by FMA into lane i mod 8 of one accumulator per dot
//     product; the lanes reduce by the fixed tree
//     ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)); the n mod 8 tail then
//     accumulates by FMA into the sum, in order. So a dot's bits do not
//     depend on which of the four kernels, or which of dot3x4's twelve
//     registers, computed it.
//   - add/sub/mul/scale, the softmax backward's row update and the AdamW
//     update: no fused operation, bitwise equal to the Go loops. AdamW's
//     square root is VSQRTPS, correctly rounded like
//     float32(math.Sqrt(float64(v))).
//   - exp, tanh and the softmax, cross-entropy and GELU bodies built on them:
//     bitwise equal to the Go loops. Each float64 lane of EXP4 runs the
//     instruction sequence of math.Exp's FMA path (math.archExp, avxfma),
//     and a lane outside its normal range goes back to math.Exp; TANH4 is
//     math.tanh's source order with unfused operations, as Go compiles it at
//     GOAMD64=v1; float32 scores, maxima and sums round where the Go loops do.
//     The GELU bodies are two macros, GELU4 and GELUGRAD4: the training
//     forward runs both on one tanh per element, each output in its own Go
//     expression's order, and geluLanesAVX2 runs the same two on float64
//     lanes so a test sees their bits before the float32 rounding hides them.
//
// Every function takes element counts n ≥ 1 checked by its wrapper and reads
// or writes exactly n elements per operand (the transcendental bodies: the
// first 4·⌊n/4⌋, or 8·⌊n/8⌋ plus a scalar tail for the maxima; AdamW: the
// first 8·⌊n/8⌋; tile4x16: kc ≥ 1 steps over the strided 4×kc A block,
// kc×16 B panel and 4×16 C block its wrapper bounds-checks; dot3x4: k ≥ 1
// elements of three strided A rows and 4·nb strided B rows, and 3×4·nb
// strided C elements, nb ≥ 1).

#include "textflag.h"

// HSUM4 reduces the distinct accumulators A, B, C, D (Y registers; ALO is A's
// X half) to ALO = [ΣA, ΣB, ΣC, ΣD] by the tree above. T is a scratch X register.
#define HSUM4(A, B, C, D, ALO, T) \
	VHADDPS B, A, A; \
	VHADDPS D, C, C; \
	VHADDPS C, A, A; \
	VEXTRACTF128 $1, A, T; \
	VADDPS  T, ALO, ALO

// GATHER4 loads [(P0)(I*4), (P1)(I*4), (P2)(I*4), (P3)(I*4)] into X register T.
#define GATHER4(P0, P1, P2, P3, I, T) \
	VMOVSS   (P0)(I*4), T; \
	VINSERTPS $0x10, (P1)(I*4), T, T; \
	VINSERTPS $0x20, (P2)(I*4), T, T; \
	VINSERTPS $0x30, (P3)(I*4), T, T

// TSTEP is one p of tile4x16: the 16 B values at DI (Y8, Y9) times each
// row's A value at SI, R10, R11, R12 offset by DX, into the row's two
// accumulators; then A steps by R9 bytes and B by R13.
#define TSTEP \
	VMOVUPS      (DI), Y8; \
	VMOVUPS      32(DI), Y9; \
	VBROADCASTSS (SI)(DX*1), Y10; \
	VFMADD231PS  Y8, Y10, Y0; \
	VFMADD231PS  Y9, Y10, Y1; \
	VBROADCASTSS (R10)(DX*1), Y11; \
	VFMADD231PS  Y8, Y11, Y2; \
	VFMADD231PS  Y9, Y11, Y3; \
	VBROADCASTSS (R11)(DX*1), Y12; \
	VFMADD231PS  Y8, Y12, Y4; \
	VFMADD231PS  Y9, Y12, Y5; \
	VBROADCASTSS (R12)(DX*1), Y13; \
	VFMADD231PS  Y8, Y13, Y6; \
	VFMADD231PS  Y9, Y13, Y7; \
	ADDQ         R9, DX; \
	ADDQ         R13, DI

// IN4 accumulates four streamed rows (SI, DI, R8, R9) into T with
// coefficients C0..C3, in that order.
#define IN4(C0, C1, C2, C3, T) \
	VFMADD231PS (SI)(AX*4), C0, T; \
	VFMADD231PS (DI)(AX*4), C1, T; \
	VFMADD231PS (R8)(AX*4), C2, T; \
	VFMADD231PS (R9)(AX*4), C3, T
#define IN4S(C0, C1, C2, C3, T) \
	VFMADD231SS (SI)(AX*4), C0, T; \
	VFMADD231SS (DI)(AX*4), C1, T; \
	VFMADD231SS (R8)(AX*4), C2, T; \
	VFMADD231SS (R9)(AX*4), C3, T

// BINOP is the body of add/sub/mul: dst[i] = dst[i] OP src[i].
#define BINOP(VOP, SOP) \
	MOVQ dst+0(FP), DI; \
	MOVQ src+8(FP), SI; \
	MOVQ n+16(FP), CX; \
	XORQ AX, AX; \
	SUBQ $8, CX; \
	JLT  tail; \
loop: \
	VMOVUPS (DI)(AX*4), Y0; \
	VOP     (SI)(AX*4), Y0, Y0; \
	VMOVUPS Y0, (DI)(AX*4); \
	ADDQ    $8, AX; \
	SUBQ    $8, CX; \
	JGE     loop; \
tail: \
	ADDQ $8, CX; \
	JZ   done; \
tloop: \
	VMOVSS (DI)(AX*4), X0; \
	SOP    (SI)(AX*4), X0, X0; \
	VMOVSS X0, (DI)(AX*4); \
	INCQ   AX; \
	DECQ   CX; \
	JNZ    tloop; \
done: \
	VZEROUPPER; \
	RET

// func hasAVX2FMA() bool
// OSXSAVE, AVX and FMA in CPUID.1:ECX, XMM+YMM state enabled in XCR0, AVX2 in
// CPUID.7.0:EBX.
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// func axpyAVX2(a float32, x, y *float32, n int): y += a·x
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (DI)(AX*4), Y1
	VFMADD231PS (SI)(AX*4), Y0, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
tloop:
	VMOVSS (DI)(AX*4), X1
	VFMADD231SS (SI)(AX*4), X0, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	DECQ   CX
	JNZ    tloop
done:
	VZEROUPPER
	RET

// func tile4x16AVX2(a *float32, ars, aps int, b *float32, ldb int, c *float32, ldc, kc int, skip bool)
// C[r][0:16] = fma(A(r,p), B[p][0:16], C[r][0:16]) for p = 0 … kc−1, with
// A(r,p) at a + r·ars + p·aps and row r of C in Y(2r), Y(2r+1) throughout.
// With skip (ars = 1, kc a multiple of four), each group of four p ORs the
// four A columns; a row whose lane is ±0 there takes none of the group's
// terms: all rows set runs TSTEP ×4, none set jumps the group, else each p
// tests the rows one by one.
TEXT ·tile4x16AVX2(SB), NOSPLIT, $0-65
	MOVQ    c+40(FP), BX
	MOVQ    ldc+48(FP), R8
	SHLQ    $2, R8
	LEAQ    (BX)(R8*2), AX
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	VMOVUPS (BX)(R8*1), Y2
	VMOVUPS 32(BX)(R8*1), Y3
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VMOVUPS (AX)(R8*1), Y6
	VMOVUPS 32(AX)(R8*1), Y7
	MOVQ    a+0(FP), SI
	MOVQ    ars+8(FP), AX
	SHLQ    $2, AX
	LEAQ    (SI)(AX*1), R10
	LEAQ    (R10)(AX*1), R11
	LEAQ    (R11)(AX*1), R12
	MOVQ    aps+16(FP), R9
	SHLQ    $2, R9
	MOVQ    b+24(FP), DI
	MOVQ    ldb+32(FP), R13
	SHLQ    $2, R13
	MOVQ    kc+56(FP), CX
	XORQ    DX, DX
	CMPB    skip+64(FP), $0
	JNE     groups
loop:
	TSTEP
	DECQ CX
	JNZ  loop
	JMP  store
groups:
	SHRQ   $2, CX
	VXORPS X15, X15, X15
gloop:
	MOVQ      DX, AX
	VMOVUPS   (SI)(AX*1), X14
	ADDQ      R9, AX
	VORPS     (SI)(AX*1), X14, X14
	ADDQ      R9, AX
	VORPS     (SI)(AX*1), X14, X14
	ADDQ      R9, AX
	VORPS     (SI)(AX*1), X14, X14
	VCMPPS    $4, X15, X14, X14 // NEQ_UQ: a row's lane is set unless all four were ±0
	VMOVMSKPS X14, AX
	CMPL      AX, $15
	JNE       partial
	TSTEP
	TSTEP
	TSTEP
	TSTEP
	DECQ CX
	JNZ  gloop
	JMP  store
partial:
	TESTL AX, AX
	JNZ   mixed
	LEAQ  (DX)(R9*4), DX
	LEAQ  (DI)(R13*4), DI
	DECQ  CX
	JNZ   gloop
	JMP   store
mixed:
	MOVL $4, BX
mstep:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	BTL     $0, AX
	JCC     row1
	VBROADCASTSS (SI)(DX*1), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
row1:
	BTL $1, AX
	JCC row2
	VBROADCASTSS (R10)(DX*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
row2:
	BTL $2, AX
	JCC row3
	VBROADCASTSS (R11)(DX*1), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
row3:
	BTL $3, AX
	JCC mnext
	VBROADCASTSS (R12)(DX*1), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
mnext:
	ADDQ R9, DX
	ADDQ R13, DI
	DECL BX
	JNZ  mstep
	DECQ CX
	JNZ  gloop
store:
	MOVQ    c+40(FP), BX
	MOVQ    ldc+48(FP), R8
	SHLQ    $2, R8
	LEAQ    (BX)(R8*2), AX
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	VMOVUPS Y2, (BX)(R8*1)
	VMOVUPS Y3, 32(BX)(R8*1)
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	VMOVUPS Y6, (AX)(R8*1)
	VMOVUPS Y7, 32(AX)(R8*1)
	VZEROUPPER
	RET

// func axpy4inAVX2(a0, a1, a2, a3 float32, x0, x1, x2, x3, y *float32, n int)
// y = fma(a3, x3, fma(a2, x2, fma(a1, x1, fma(a0, x0, y))))
TEXT ·axpy4inAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	MOVQ x0+16(FP), SI
	MOVQ x1+24(FP), DI
	MOVQ x2+32(FP), R8
	MOVQ x3+40(FP), R9
	MOVQ y+48(FP), R10
	MOVQ n+56(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (R10)(AX*4), Y8
	IN4(Y0, Y1, Y2, Y3, Y8)
	VMOVUPS Y8, (R10)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
tloop:
	VMOVSS (R10)(AX*4), X8
	IN4S(X0, X1, X2, X3, X8)
	VMOVSS X8, (R10)(AX*4)
	INCQ   AX
	DECQ   CX
	JNZ    tloop
done:
	VZEROUPPER
	RET

// func dotAVX2(x, y *float32, n int) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-28
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
	SUBQ   $8, CX
	JLT    reduce
loop:
	VMOVUPS (SI)(AX*4), Y8
	VFMADD231PS (DI)(AX*4), Y8, Y0
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
reduce:
	VHADDPS Y0, Y0, Y0
	VHADDPS Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X8
	VADDPS  X8, X0, X0
	ADDQ $8, CX
	JZ   done
tloop:
	VMOVSS (SI)(AX*4), X8
	VFMADD231SS (DI)(AX*4), X8, X0
	INCQ   AX
	DECQ   CX
	JNZ    tloop
done:
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func dot4AVX2(x, y0, y1, y2, y3 *float32, n int) (s0, s1, s2, s3 float32)
TEXT ·dot4AVX2(SB), NOSPLIT, $0-64
	MOVQ   x+0(FP), SI
	MOVQ   y0+8(FP), R8
	MOVQ   y1+16(FP), R9
	MOVQ   y2+24(FP), R10
	MOVQ   y3+32(FP), R11
	MOVQ   n+40(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	SUBQ   $8, CX
	JLT    reduce
loop:
	VMOVUPS (SI)(AX*4), Y8
	VFMADD231PS (R8)(AX*4), Y8, Y0
	VFMADD231PS (R9)(AX*4), Y8, Y1
	VFMADD231PS (R10)(AX*4), Y8, Y2
	VFMADD231PS (R11)(AX*4), Y8, Y3
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
reduce:
	HSUM4(Y0, Y1, Y2, Y3, X0, X8)
	ADDQ $8, CX
	JZ   done
tloop:
	VBROADCASTSS (SI)(AX*4), X8
	GATHER4(R8, R9, R10, R11, AX, X9)
	VFMADD231PS X9, X8, X0
	INCQ AX
	DECQ CX
	JNZ  tloop
done:
	VMOVUPS X0, s0+48(FP) // s0..s3 are contiguous
	VZEROUPPER
	RET

// func dot4x2AVX2(x0, x1, y0, y1, y2, y3 *float32, n int) (s00, s01, s02, s03, s10, s11, s12, s13 float32)
TEXT ·dot4x2AVX2(SB), NOSPLIT, $0-88
	MOVQ   x0+0(FP), SI
	MOVQ   x1+8(FP), DI
	MOVQ   y0+16(FP), R8
	MOVQ   y1+24(FP), R9
	MOVQ   y2+32(FP), R10
	MOVQ   y3+40(FP), R11
	MOVQ   n+48(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX
	SUBQ   $8, CX
	JLT    reduce
loop:
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS (DI)(AX*4), Y9
	VMOVUPS (R8)(AX*4), Y10
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VMOVUPS (R9)(AX*4), Y11
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VMOVUPS (R10)(AX*4), Y12
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VMOVUPS (R11)(AX*4), Y13
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
reduce:
	HSUM4(Y0, Y1, Y2, Y3, X0, X8)
	HSUM4(Y4, Y5, Y6, Y7, X4, X8)
	ADDQ $8, CX
	JZ   done
tloop:
	GATHER4(R8, R9, R10, R11, AX, X9)
	VBROADCASTSS (SI)(AX*4), X8
	VFMADD231PS X9, X8, X0
	VBROADCASTSS (DI)(AX*4), X8
	VFMADD231PS X9, X8, X4
	INCQ AX
	DECQ CX
	JNZ  tloop
done:
	VMOVUPS X0, s00+56(FP) // s00..s03 are contiguous
	VMOVUPS X4, s10+72(FP) // s10..s13 are contiguous
	VZEROUPPER
	RET

// func dot3x4AVX2(a *float32, lda int, b *float32, ldb int, c *float32, ldc, k, nb int)
// For each block t < nb: C[r][4t+j] = dot(A[r], B[4t+j]) for r < 3, j < 4,
// with A(r) at a + r·lda, B(4t+j) at b + (4t+j)·ldb, C[r] at c + r·ldc. The
// twelve sums of a block live in Y0–Y11 (row r in Y(4r) … Y(4r+3)); per
// 8-element chunk, three A loads, four B loads and twelve FMAs. Each row's
// four sums then reduce by HSUM4 and take the tail as dot4's do.
TEXT ·dot3x4AVX2(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	SHLQ $2, AX
	LEAQ (SI)(AX*1), R8
	LEAQ (R8)(AX*1), R9
	MOVQ b+16(FP), R10
	MOVQ ldb+24(FP), R14
	SHLQ $2, R14
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), BX
	SHLQ $2, BX
	MOVQ nb+56(FP), DI
block:
	LEAQ   (R10)(R14*1), R11
	LEAQ   (R11)(R14*1), R12
	LEAQ   (R12)(R14*1), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	MOVQ   k+48(FP), CX
	XORQ   AX, AX
	SUBQ   $8, CX
	JLT    reduce
loop:
	VMOVUPS (SI)(AX*4), Y12
	VMOVUPS (R8)(AX*4), Y13
	VMOVUPS (R9)(AX*4), Y14
	VMOVUPS (R10)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y0
	VFMADD231PS Y15, Y13, Y4
	VFMADD231PS Y15, Y14, Y8
	VMOVUPS (R11)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y1
	VFMADD231PS Y15, Y13, Y5
	VFMADD231PS Y15, Y14, Y9
	VMOVUPS (R12)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y2
	VFMADD231PS Y15, Y13, Y6
	VFMADD231PS Y15, Y14, Y10
	VMOVUPS (R13)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y3
	VFMADD231PS Y15, Y13, Y7
	VFMADD231PS Y15, Y14, Y11
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
reduce:
	HSUM4(Y0, Y1, Y2, Y3, X0, X12)
	HSUM4(Y4, Y5, Y6, Y7, X4, X12)
	HSUM4(Y8, Y9, Y10, Y11, X8, X12)
	ADDQ $8, CX
	JZ   store
tloop:
	GATHER4(R10, R11, R12, R13, AX, X13)
	VBROADCASTSS (SI)(AX*4), X12
	VFMADD231PS  X13, X12, X0
	VBROADCASTSS (R8)(AX*4), X12
	VFMADD231PS  X13, X12, X4
	VBROADCASTSS (R9)(AX*4), X12
	VFMADD231PS  X13, X12, X8
	INCQ AX
	DECQ CX
	JNZ  tloop
store:
	VMOVUPS X0, (DX)
	VMOVUPS X4, (DX)(BX*1)
	VMOVUPS X8, (DX)(BX*2)
	LEAQ    (R13)(R14*1), R10
	ADDQ    $16, DX
	DECQ    DI
	JNZ     block
	VZEROUPPER
	RET

// func addAVX2(dst, src *float32, n int): dst += src
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	BINOP(VADDPS, VADDSS)

// func subAVX2(dst, src *float32, n int): dst -= src
TEXT ·subAVX2(SB), NOSPLIT, $0-24
	BINOP(VSUBPS, VSUBSS)

// func mulAVX2(dst, src *float32, n int): dst *= src
TEXT ·mulAVX2(SB), NOSPLIT, $0-24
	BINOP(VMULPS, VMULSS)

// func softmaxGradAVX2(d, p *float32, n int, dot, scale float32)
// d[j] = (scale·p[j])·(d[j] − dot), unfused, as the Go loop rounds it.
TEXT ·softmaxGradAVX2(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         p+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS dot+24(FP), Y2
	VBROADCASTSS scale+28(FP), Y3
	XORQ         AX, AX
	SUBQ         $8, CX
	JLT          tail
loop:
	VMULPS  (SI)(AX*4), Y3, Y0
	VMOVUPS (DI)(AX*4), Y1
	VSUBPS  Y2, Y1, Y1
	VMULPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
tloop:
	VMULSS (SI)(AX*4), X3, X0
	VMOVSS (DI)(AX*4), X1
	VSUBSS X2, X1, X1
	VMULSS X1, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	DECQ   CX
	JNZ    tloop
done:
	VZEROUPPER
	RET

// func scaleAVX2(a float32, x *float32, n int): x *= a
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	VBROADCASTSS a+0(FP), Y1
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  tail
loop:
	VMULPS  (DI)(AX*4), Y1, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
tloop:
	VMULSS (DI)(AX*4), X1, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	DECQ   CX
	JNZ    tloop
done:
	VZEROUPPER
	RET

// func fmaPeakAVX2(iters int)
// Ten independent 8-lane FMA chains (latency 4–5 × 2 ports), iters times:
// 160·iters flops with no memory traffic — the single-core roofline.
TEXT ·fmaPeakAVX2(SB), NOSPLIT, $0-8
	MOVQ   iters+0(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
loop:
	VFMADD231PS Y10, Y10, Y0
	VFMADD231PS Y10, Y10, Y1
	VFMADD231PS Y10, Y10, Y2
	VFMADD231PS Y10, Y10, Y3
	VFMADD231PS Y10, Y10, Y4
	VFMADD231PS Y10, Y10, Y5
	VFMADD231PS Y10, Y10, Y6
	VFMADD231PS Y10, Y10, Y7
	VFMADD231PS Y10, Y10, Y8
	VFMADD231PS Y10, Y10, Y9
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// Constants of the transcendental bodies, each in 32 bytes so it can be a
// ymm memory operand: math.archExp's (the same literals as
// $GOROOT/src/math/exp_amd64.s), math.tanh's, GELU's, and the int32 lanes of
// the exponent range check and the ALiBi offsets.
#define F64X4(off, v) \
	DATA tc<>+(off)(SB)/8, v; \
	DATA tc<>+(off+8)(SB)/8, v; \
	DATA tc<>+(off+16)(SB)/8, v; \
	DATA tc<>+(off+24)(SB)/8, v
#define I32X8(off, v) \
	DATA tc<>+(off)(SB)/4, v; \
	DATA tc<>+(off+4)(SB)/4, v; \
	DATA tc<>+(off+8)(SB)/4, v; \
	DATA tc<>+(off+12)(SB)/4, v; \
	DATA tc<>+(off+16)(SB)/4, v; \
	DATA tc<>+(off+20)(SB)/4, v; \
	DATA tc<>+(off+24)(SB)/4, v; \
	DATA tc<>+(off+28)(SB)/4, v

F64X4(0, $1.4426950408889634073599246810018920)                  // log2(e)
F64X4(32, $0.69314718055966295651160180568695068359375)          // ln(2), upper
F64X4(64, $0.28235290563031577122588448175013436025525412068e-12) // ln(2), lower
F64X4(96, $0.0625)
F64X4(128, $2.4801587301587301587e-5) // Taylor coefficients, highest first
F64X4(160, $1.9841269841269841270e-4)
F64X4(192, $1.3888888888888888889e-3)
F64X4(224, $8.3333333333333333333e-3)
F64X4(256, $4.1666666666666666667e-2)
F64X4(288, $1.6666666666666666667e-1)
F64X4(320, $0.5)
F64X4(352, $1.0)
F64X4(384, $2.0)
F64X4(416, $0xbfeedc5baafd6f4b)     // tanhP[0] = -9.64399179425052238628e-1
F64X4(448, $0xc058d26a0e26682d)     // tanhP[1] = -9.92877231001918586564e1
F64X4(480, $0xc0993ac030580563)     // tanhP[2] = -1.61468768441708447952e3
F64X4(512, $0x405c33f28a581b86)     // tanhQ[0] = 1.12811678491632931402e2
F64X4(544, $0x40a176fa0e5535fa)     // tanhQ[1] = 2.23548839060100448583e3
F64X4(576, $0x40b2ec102442040c)     // tanhQ[2] = 4.84406305325125486048e3
F64X4(608, $0.625)
F64X4(640, $45.0)                   // cap on |x| before exp in tanh
F64X4(672, $0x8000000000000000)     // sign bit
F64X4(704, $0x7fffffffffffffff)     // all but the sign bit
F64X4(736, $0x3fe9884533d43651)     // GELU √(2/π) = 0.7978845608028654
F64X4(768, $0x3fa6e4e26d4801f7)     // 0.044715
F64X4(800, $0x3fc12ba9d1f60179)     // 3·0.044715, folded as Go folds it
I32X8(832, $1023)                   // exponent bias
I32X8(864, $1)                      // smallest normal biased exponent
I32X8(896, $2046)                   // largest
DATA tc<>+928(SB)/4, $0             // ALiBi lane offsets 0…7
DATA tc<>+932(SB)/4, $1
DATA tc<>+936(SB)/4, $2
DATA tc<>+940(SB)/4, $3
DATA tc<>+944(SB)/4, $4
DATA tc<>+948(SB)/4, $5
DATA tc<>+952(SB)/4, $6
DATA tc<>+956(SB)/4, $7
I32X8(960, $8)
I32X8(992, $0xff800000)             // float32 −Inf
GLOBL tc<>(SB), RODATA|NOPTR, $1024

// EXP4 sets Y0 = exp(Y0) in four float64 lanes by math.archExp's FMA path,
// instruction for instruction: k = round(x·log2e) by VCVTPD2DQ (CVTSD2SL
// there), r = (x − k·ln2u − k·ln2l)/16 by two fused negated multiply-adds,
// the degree-7 Taylor polynomial by VFMADD213 in Horner order, four
// squarings of (1 + r·p) by VADDPD/VMULPD with the last one fused, then ·2^k
// with 2^k built from the biased exponent b = k + 1023, left in X2. The
// result is exact only where b is in [1, 2046] (EXPFLAGS). Clobbers Y1, Y2.
#define EXP4 \
	VMULPD       tc<>+0(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD tc<>+32(SB), Y1, Y0; \
	VFNMADD231PD tc<>+64(SB), Y1, Y0; \
	VMULPD       tc<>+96(SB), Y0, Y0; \
	VMOVUPD      tc<>+128(SB), Y1; \
	VFMADD213PD  tc<>+160(SB), Y0, Y1; \
	VFMADD213PD  tc<>+192(SB), Y0, Y1; \
	VFMADD213PD  tc<>+224(SB), Y0, Y1; \
	VFMADD213PD  tc<>+256(SB), Y0, Y1; \
	VFMADD213PD  tc<>+288(SB), Y0, Y1; \
	VFMADD213PD  tc<>+320(SB), Y0, Y1; \
	VFMADD213PD  tc<>+352(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       tc<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       tc<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       tc<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       tc<>+384(SB), Y0, Y1; \
	VFMADD213PD  tc<>+352(SB), Y1, Y0; \
	VPADDD       tc<>+832(SB), X2, X2; \
	VPMOVZXDQ    X2, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, Y0, Y0

// EXPFLAGS sets DX to one bit per lane of the last EXP4 whose b is outside
// [1, 2046]: NaN, ±Inf, overflow, and a denormal or zero result. There
// archExp branches, so the lane's value is wrong and the caller recomputes
// it with math.Exp. Clobbers X1, X3.
#define EXPFLAGS \
	VMOVDQU   tc<>+864(SB), X3; \
	VPCMPGTD  X2, X3, X3; \
	VPCMPGTD  tc<>+896(SB), X2, X1; \
	VPOR      X1, X3, X3; \
	VMOVMSKPS X3, DX

// TANH4 sets Y5 = tanh(Y4) in four float64 lanes. It evaluates both branches
// of math.tanh with its operations in source order, none fused: the small
// one x + x·s·P(s)/Q(s) with s = x², and the large one 1 − 2/(exp(2z)+1)
// with z = |x|, each given the sign of x (which also turns the small
// branch's +0 for x = −0 into math.tanh's −0), then takes the large one
// where z ≥ 0.625. z is first capped at 45, past math.tanh's ±1 clamp at
// 44.0148…: there 2/(exp(2z)+1) < 2⁻¹²⁶, so the large branch rounds to ±1
// exactly, and below it exp's argument 2z ≤ 88.03 is always in EXP4's exact
// range. A NaN fails the comparison and keeps the small branch's NaN, as
// math.tanh does. Keeps Y4; clobbers Y0–Y3, Y6, Y7.
#define TANH4 \
	VANDPD    tc<>+704(SB), Y4, Y6; \
	VANDPD    tc<>+672(SB), Y4, Y3; \
	VMINPD    tc<>+640(SB), Y6, Y0; \
	VADDPD    Y0, Y0, Y0; \
	EXP4; \
	VADDPD    tc<>+352(SB), Y0, Y0; \
	VMOVUPD   tc<>+384(SB), Y1; \
	VDIVPD    Y0, Y1, Y1; \
	VMOVUPD   tc<>+352(SB), Y7; \
	VSUBPD    Y1, Y7, Y7; \
	VORPD     Y3, Y7, Y7; \
	VMULPD    Y4, Y4, Y0; \
	VMULPD    Y0, Y4, Y2; \
	VMULPD    tc<>+416(SB), Y0, Y1; \
	VADDPD    tc<>+448(SB), Y1, Y1; \
	VMULPD    Y0, Y1, Y1; \
	VADDPD    tc<>+480(SB), Y1, Y1; \
	VMULPD    Y2, Y1, Y1; \
	VADDPD    tc<>+512(SB), Y0, Y2; \
	VMULPD    Y0, Y2, Y2; \
	VADDPD    tc<>+544(SB), Y2, Y2; \
	VMULPD    Y0, Y2, Y2; \
	VADDPD    tc<>+576(SB), Y2, Y2; \
	VDIVPD    Y2, Y1, Y1; \
	VADDPD    Y1, Y4, Y5; \
	VORPD     Y3, Y5, Y5; \
	VCMPPD    $0x1d, tc<>+608(SB), Y6, Y0; \
	VBLENDVPD Y0, Y7, Y5, Y5

// GELU4 sets Y13 = 0.5·x·(1 + t) with t = tanh(√(2/π)·(x + 0.044715·x·x·x))
// for x in Y8, unfused and in Go's order, leaving Y5 = t, Y9 = 0.5·x and
// Y11 = 1 + t for GELUGRAD4. Clobbers Y0–Y4, Y6, Y7.
#define GELU4 \
	VMULPD tc<>+320(SB), Y8, Y9; \
	VMULPD tc<>+768(SB), Y8, Y4; \
	VMULPD Y8, Y4, Y4; \
	VMULPD Y8, Y4, Y4; \
	VADDPD Y4, Y8, Y4; \
	VMULPD tc<>+736(SB), Y4, Y4; \
	TANH4; \
	VADDPD tc<>+352(SB), Y5, Y11; \
	VMULPD Y9, Y11, Y13

// GELUGRAD4 follows GELU4: it sets Y11 = 0.5·(1+t) + 0.5·x·(1−t²)·√(2/π)·
// (1 + 3·0.044715·x²), unfused and in Go's order. Clobbers Y5, Y10, Y12.
#define GELUGRAD4 \
	VMULPD  tc<>+800(SB), Y8, Y10; \
	VMULPD  Y8, Y10, Y10; \
	VADDPD  tc<>+352(SB), Y10, Y10; \
	VMULPD  tc<>+736(SB), Y10, Y10; \
	VMULPD  tc<>+320(SB), Y11, Y11; \
	VMULPD  Y5, Y5, Y5; \
	VMOVUPD tc<>+352(SB), Y12; \
	VSUBPD  Y5, Y12, Y12; \
	VMULPD  Y9, Y12, Y12; \
	VMULPD  Y10, Y12, Y12; \
	VADDPD  Y12, Y11, Y11

// HMAX8 reduces the eight float32 lanes of Y0 (none NaN) to their maximum in
// X0. T is a scratch X register.
#define HMAX8(T) \
	VEXTRACTF128 $1, Y0, T; \
	VMAXPS       T, X0, X0; \
	VPERMILPS    $0x4e, X0, T; \
	VMAXPS       T, X0, X0; \
	VPERMILPS    $0xb1, X0, T; \
	VMAXPS       T, X0, X0

// func expAVX2(dst, src *float64, n int) (done int)
// dst[i] = exp(src[i]) for whole groups of four, stopping before the first
// group with a lane EXP4 flags; done is the number of elements written.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JLT  done
loop:
	VMOVUPD (SI)(AX*8), Y0
	EXP4
	EXPFLAGS
	TESTL   DX, DX
	JNZ     done
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, CX
	JGE     loop
done:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src *float64, n int)
// dst[i] = tanh(src[i]) for the first 4·⌊n/4⌋ elements.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JLT  done
loop:
	VMOVUPD (SI)(AX*8), Y4
	TANH4
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, CX
	JGE     loop
done:
	VZEROUPPER
	RET

// func expSumAVX2(dst, x *float32, n int, m float32, sum float64, rounded bool) (done int, s float64)
// For whole groups of four: e = exp(float64(x[i] − m)) with the subtraction
// in float32; dst[i] = float32(e) unless dst is nil; s = sum + Σ e in i
// order, one scalar add per element, of float64(float32(e)) when rounded.
// Stops before the first group with a lane EXP4 flags, which it leaves
// unwritten; done is the number of elements consumed.
TEXT ·expSumAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS m+24(FP), X4
	VMOVSD       sum+32(FP), X5
	MOVBQZX      rounded+40(FP), R9
	XORQ         AX, AX
	SUBQ         $4, CX
	JLT          done
loop:
	VMOVUPS    (SI)(AX*4), X0
	VSUBPS     X4, X0, X0
	VCVTPS2PD  X0, Y0
	EXP4
	EXPFLAGS
	TESTL      DX, DX
	JNZ        done
	VCVTPD2PSY Y0, X1
	TESTQ      DI, DI
	JZ         add
	VMOVUPS    X1, (DI)(AX*4)
	TESTQ      R9, R9
	JZ         add
	VCVTPS2PD  X1, Y0
add:
	VADDSD       X0, X5, X5
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X5, X5
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X5, X5
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X5, X5
	ADDQ         $4, AX
	SUBQ         $4, CX
	JGE          loop
done:
	MOVQ   AX, done+48(FP)
	VMOVSD X5, s+56(FP)
	VZEROUPPER
	RET

// func maxAVX2(x *float32, n int) float32
// The largest non-NaN element of x, −Inf if there is none. Each lane keeps
// v only when v > its maximum, as the Go scan does, so a NaN never enters.
TEXT ·maxAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VMOVUPS      tc<>+992(SB), Y0
	XORQ         AX, AX
	SUBQ         $8, CX
	JLT          reduce
loop:
	VMOVUPS (SI)(AX*4), Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
reduce:
	HMAX8(X1)
	ADDQ $8, CX
	JZ   done
tloop:
	VMOVSS (SI)(AX*4), X1
	VMAXSS X0, X1, X0
	INCQ   AX
	DECQ   CX
	JNZ    tloop
done:
	VMOVSS X0, ret+16(FP)
	VZEROUPPER
	RET

// func biasMaxAVX2(row *float32, n int, scale, slope float32, pos int) float32
// row[j] = row[j]·scale + slope·float32(j − pos) in place, unfused, and the
// largest non-NaN result as maxAVX2 finds it.
TEXT ·biasMaxAVX2(SB), NOSPLIT, $0-36
	MOVQ         row+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS scale+16(FP), Y4
	VBROADCASTSS slope+20(FP), Y5
	MOVQ         pos+24(FP), BX
	NEGQ         BX
	VMOVQ        BX, X6
	VPBROADCASTD X6, Y6
	VPADDD       tc<>+928(SB), Y6, Y6
	VMOVUPS      tc<>+992(SB), Y0
	XORQ         AX, AX
	SUBQ         $8, CX
	JLT          reduce
loop:
	VMULPS    (SI)(AX*4), Y4, Y1
	VCVTDQ2PS Y6, Y2
	VMULPS    Y5, Y2, Y2
	VADDPS    Y2, Y1, Y1
	VMOVUPS   Y1, (SI)(AX*4)
	VMAXPS    Y0, Y1, Y0
	VPADDD    tc<>+960(SB), Y6, Y6
	ADDQ      $8, AX
	SUBQ      $8, CX
	JGE       loop
reduce:
	HMAX8(X1)
	ADDQ $8, CX
	JZ   done
tloop:
	VMULSS     (SI)(AX*4), X4, X1
	LEAQ       (AX)(BX*1), DX
	VCVTSI2SSQ  DX, X2, X2
	VMULSS     X5, X2, X2
	VADDSS     X2, X1, X1
	VMOVSS     X1, (SI)(AX*4)
	VMAXSS     X0, X1, X0
	INCQ       AX
	DECQ       CX
	JNZ        tloop
done:
	VMOVSS X0, ret+32(FP)
	VZEROUPPER
	RET

// func geluAVX2(dst, x *float32, n int)
// dst[i] = float32(0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))) in float64,
// for the first 4·⌊n/4⌋ elements.
TEXT ·geluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JLT  done
loop:
	VCVTPS2PD  (SI)(AX*4), Y8
	GELU4
	VCVTPD2PSY Y13, X13
	VMOVUPS    X13, (DI)(AX*4)
	ADDQ       $4, AX
	SUBQ       $4, CX
	JGE        loop
done:
	VZEROUPPER
	RET

// func geluWithGradAVX2(y, dg, x *float32, n int)
// y[i] = float32(0.5·x·(1+t)) and
// dg[i] = float32(0.5·(1+t) + 0.5·x·(1−t²)·√(2/π)·(1 + 3·0.044715·x²)) in
// float64, with t = tanh(√(2/π)·(x + 0.044715·x³)) evaluated once, for the
// first 4·⌊n/4⌋ elements. Each output runs geluAVX2's or the Go derivative's
// operations in their order.
TEXT ·geluWithGradAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ dg+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JLT  done
loop:
	VCVTPS2PD  (SI)(AX*4), Y8
	GELU4
	GELUGRAD4
	VCVTPD2PSY Y13, X13
	VMOVUPS    X13, (DI)(AX*4)
	VCVTPD2PSY Y11, X11
	VMOVUPS    X11, (R8)(AX*4)
	ADDQ       $4, AX
	SUBQ       $4, CX
	JGE        loop
done:
	VZEROUPPER
	RET

// func geluLanesAVX2(y, dg, src *float64, n int)
// The GELU bodies on float64 lanes, not rounded to float32: y[i] = GELU4's
// and dg[i] = GELUGRAD4's value of src[i], for the first 4·⌊n/4⌋ elements.
TEXT ·geluLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ dg+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JLT  done
loop:
	VMOVUPD (SI)(AX*8), Y8
	GELU4
	GELUGRAD4
	VMOVUPD Y13, (DI)(AX*8)
	VMOVUPD Y11, (R8)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, CX
	JGE     loop
done:
	VZEROUPPER
	RET

// func adamwAVX2(data, grad, m, v *float32, n int, c *AdamWFactors)
// The AdamW update of tensor.AdamW for the first 8·⌊n/8⌋ elements, eight
// lanes at a time: every multiply, add, divide and the square root rounded
// to float32 on its own, in the Go loop's order. VSQRTPS is correctly
// rounded, so it gives float32(math.Sqrt(float64(v)))'s bits.
TEXT ·adamwAVX2(SB), NOSPLIT, $0-48
	MOVQ         data+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), DX
	VBROADCASTSS 0(DX), Y0  // b1
	VBROADCASTSS 4(DX), Y1  // 1−b1
	VBROADCASTSS 8(DX), Y2  // b2
	VBROADCASTSS 12(DX), Y3 // 1−b2
	VBROADCASTSS 16(DX), Y4 // 1/(1−b1^t)
	VBROADCASTSS 20(DX), Y5 // 1/(1−b2^t)
	VBROADCASTSS 24(DX), Y6 // lr
	VBROADCASTSS 28(DX), Y7 // lr·wd
	VBROADCASTSS 32(DX), Y8 // eps
	XORQ         AX, AX
	SUBQ         $8, CX
	JLT          done
loop:
	VMOVUPS (SI)(AX*4), Y9
	VMULPS  (R8)(AX*4), Y0, Y10
	VMULPS  Y9, Y1, Y11
	VADDPS  Y11, Y10, Y10
	VMOVUPS Y10, (R8)(AX*4)
	VMULPS  (R9)(AX*4), Y2, Y11
	VMULPS  Y9, Y3, Y12
	VMULPS  Y9, Y12, Y12
	VADDPS  Y12, Y11, Y11
	VMOVUPS Y11, (R9)(AX*4)
	VMULPS  Y4, Y10, Y10
	VMULPS  Y5, Y11, Y11
	VSQRTPS Y11, Y11
	VADDPS  Y8, Y11, Y11
	VMULPS  Y10, Y6, Y10
	VDIVPS  Y11, Y10, Y10
	VMOVUPS (DI)(AX*4), Y12
	VMULPS  Y12, Y7, Y13
	VADDPS  Y13, Y10, Y10
	VSUBPS  Y10, Y12, Y12
	VMOVUPS Y12, (DI)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
done:
	VZEROUPPER
	RET

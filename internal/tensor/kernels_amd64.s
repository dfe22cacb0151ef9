// AVX2+FMA bodies for the micro-kernels of kernels.go and the elementwise
// helpers of tensor.go. Declarations are in kernels_amd64.go; the Go loops
// beside each wrapper are the reference and what every other machine runs.
//
// Numerics, which the tile-invariance tests pin:
//   - axpy family: every output element is one chain of VFMADD231 in p order,
//     the same chain in the 8-lane body and the scalar tail, so an element's
//     value does not depend on which kernel (4-row tile, pair, single row)
//     or which lane produced it.
//   - dot family: element i of the 8·⌊n/8⌋ prefix accumulates by FMA into lane
//     i mod 8 of one accumulator per dot product; the lanes reduce by the
//     fixed tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)); the n mod 8 tail then
//     accumulates by FMA into the sum, in order.
//   - add/sub/mul/scale: no fused operation, bitwise equal to the Go loops.
//
// Every function takes element counts n ≥ 1 checked by its wrapper and reads
// or writes exactly n elements per operand.

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

// ROW1/ROW2 update 8 elements of the row at P with one or two FMAs.
#define ROW1(P, X, A, T) \
	VMOVUPS (P)(AX*4), T; \
	VFMADD231PS X, A, T; \
	VMOVUPS T, (P)(AX*4)
#define ROW2(P, X, A, Z, B, T) \
	VMOVUPS (P)(AX*4), T; \
	VFMADD231PS X, A, T; \
	VFMADD231PS Z, B, T; \
	VMOVUPS T, (P)(AX*4)
#define ROW1S(P, X, A, T) \
	VMOVSS (P)(AX*4), T; \
	VFMADD231SS X, A, T; \
	VMOVSS T, (P)(AX*4)
#define ROW2S(P, X, A, Z, B, T) \
	VMOVSS (P)(AX*4), T; \
	VFMADD231SS X, A, T; \
	VFMADD231SS Z, B, T; \
	VMOVSS T, (P)(AX*4)

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

// func axpy4AVX2(a0, a1, a2, a3 float32, x, y0, y1, y2, y3 *float32, n int)
// y0..y3 += a0..a3 · x
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	MOVQ x+16(FP), SI
	MOVQ y0+24(FP), R8
	MOVQ y1+32(FP), R9
	MOVQ y2+40(FP), R10
	MOVQ y3+48(FP), R11
	MOVQ n+56(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI)(AX*4), Y8
	ROW1(R8, Y8, Y0, Y10)
	ROW1(R9, Y8, Y1, Y11)
	ROW1(R10, Y8, Y2, Y12)
	ROW1(R11, Y8, Y3, Y13)
	ADDQ $8, AX
	SUBQ $8, CX
	JGE  loop
tail:
	ADDQ $8, CX
	JZ   done
tloop:
	VMOVSS (SI)(AX*4), X8
	ROW1S(R8, X8, X0, X10)
	ROW1S(R9, X8, X1, X11)
	ROW1S(R10, X8, X2, X12)
	ROW1S(R11, X8, X3, X13)
	INCQ AX
	DECQ CX
	JNZ  tloop
done:
	VZEROUPPER
	RET

// func axpy4p2AVX2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x, z, y0, y1, y2, y3 *float32, n int)
// y0..y3 = fma(b0..b3, z, fma(a0..a3, x, y0..y3)): two axpy4 steps, one pass over y.
TEXT ·axpy4p2AVX2(SB), NOSPLIT, $0-88
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	VBROADCASTSS b0+16(FP), Y4
	VBROADCASTSS b1+20(FP), Y5
	VBROADCASTSS b2+24(FP), Y6
	VBROADCASTSS b3+28(FP), Y7
	MOVQ x+32(FP), SI
	MOVQ z+40(FP), DI
	MOVQ y0+48(FP), R8
	MOVQ y1+56(FP), R9
	MOVQ y2+64(FP), R10
	MOVQ y3+72(FP), R11
	MOVQ n+80(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS (DI)(AX*4), Y9
	ROW2(R8, Y8, Y0, Y9, Y4, Y10)
	ROW2(R9, Y8, Y1, Y9, Y5, Y11)
	ROW2(R10, Y8, Y2, Y9, Y6, Y12)
	ROW2(R11, Y8, Y3, Y9, Y7, Y13)
	ADDQ $8, AX
	SUBQ $8, CX
	JGE  loop
tail:
	ADDQ $8, CX
	JZ   done
tloop:
	VMOVSS (SI)(AX*4), X8
	VMOVSS (DI)(AX*4), X9
	ROW2S(R8, X8, X0, X9, X4, X10)
	ROW2S(R9, X8, X1, X9, X5, X11)
	ROW2S(R10, X8, X2, X9, X6, X12)
	ROW2S(R11, X8, X3, X9, X7, X13)
	INCQ AX
	DECQ CX
	JNZ  tloop
done:
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

// func axpy4in2AVX2(a0, a1, a2, a3, b0, b1, b2, b3 float32, x0, x1, x2, x3, y, z *float32, n int)
// Two axpy4in accumulations over the same four x rows: y with a0..a3, z with b0..b3.
TEXT ·axpy4in2AVX2(SB), NOSPLIT, $0-88
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3
	VBROADCASTSS b0+16(FP), Y4
	VBROADCASTSS b1+20(FP), Y5
	VBROADCASTSS b2+24(FP), Y6
	VBROADCASTSS b3+28(FP), Y7
	MOVQ x0+32(FP), SI
	MOVQ x1+40(FP), DI
	MOVQ x2+48(FP), R8
	MOVQ x3+56(FP), R9
	MOVQ y+64(FP), R10
	MOVQ z+72(FP), R11
	MOVQ n+80(FP), CX
	XORQ AX, AX
	SUBQ $8, CX
	JLT  tail
loop:
	VMOVUPS (R10)(AX*4), Y8
	VMOVUPS (R11)(AX*4), Y9
	VMOVUPS (SI)(AX*4), Y10
	VMOVUPS (DI)(AX*4), Y11
	VMOVUPS (R8)(AX*4), Y12
	VMOVUPS (R9)(AX*4), Y13
	VFMADD231PS Y10, Y0, Y8
	VFMADD231PS Y10, Y4, Y9
	VFMADD231PS Y11, Y1, Y8
	VFMADD231PS Y11, Y5, Y9
	VFMADD231PS Y12, Y2, Y8
	VFMADD231PS Y12, Y6, Y9
	VFMADD231PS Y13, Y3, Y8
	VFMADD231PS Y13, Y7, Y9
	VMOVUPS Y8, (R10)(AX*4)
	VMOVUPS Y9, (R11)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JGE     loop
tail:
	ADDQ $8, CX
	JZ   done
tloop:
	VMOVSS (R10)(AX*4), X8
	VMOVSS (R11)(AX*4), X9
	IN4S(X0, X1, X2, X3, X8)
	IN4S(X4, X5, X6, X7, X9)
	VMOVSS X8, (R10)(AX*4)
	VMOVSS X9, (R11)(AX*4)
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

// func addAVX2(dst, src *float32, n int): dst += src
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	BINOP(VADDPS, VADDSS)

// func subAVX2(dst, src *float32, n int): dst -= src
TEXT ·subAVX2(SB), NOSPLIT, $0-24
	BINOP(VSUBPS, VSUBSS)

// func mulAVX2(dst, src *float32, n int): dst *= src
TEXT ·mulAVX2(SB), NOSPLIT, $0-24
	BINOP(VMULPS, VMULSS)

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

//go:build amd64 && !purego

#include "textflag.h"

// The three AVX2 register-tile micro-kernels behind MatMul / MatMulT1 /
// MatMulT2 (matmul.go has the drivers, the package comment the contract).
// Every product is a VMULPD followed by a VADDPD — never a fused
// multiply-add — so each lane rounds exactly like one element of the
// portable loop it stands in for. Each call walks one tile row: nt tiles
// left to right, eight accumulators (Y0–Y7) held over the whole p loop of a
// tile. Strides arrive in elements and are scaled to bytes here.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// PLAINROW is one row of the plain kernel's step at p: the scalar of a is
// tested as an integer (shifting the sign out leaves zero exactly for ±0),
// then broadcast against the tile's two vectors of b[p] held in Y8/Y9.
#define PLAINROW(aaddr, lo, hi, skip) \
	MOVQ aaddr, AX; \
	ADDQ AX, AX; \
	JZ   skip; \
	VBROADCASTSD aaddr, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, lo, lo; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, hi, hi; \
skip:

// func gemmPlain(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int)
//
// dst[r, 8t:8t+8] += Σ_p a[r·ars + p·aps] · b[p, 8t:8t+8] for r < 4, t < nt,
// p ascending, a term skipped when its a is ±0. Accumulators start from dst.
TEXT ·gemmPlain(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ ars+24(FP), R9
	MOVQ aps+32(FP), R10
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R11
	MOVQ nt+64(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12
	LEAQ (R9)(R9*2), R13

plainTile:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R12*1), Y6
	VMOVUPD 32(DI)(R12*1), Y7
	MOVQ a+16(FP), SI
	MOVQ BX, R14
	MOVQ k+56(FP), CX

plainP:
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y9
	PLAINROW((SI), Y0, Y1, plainSkip0)
	PLAINROW((SI)(R9*1), Y2, Y3, plainSkip1)
	PLAINROW((SI)(R9*2), Y4, Y5, plainSkip2)
	PLAINROW((SI)(R13*1), Y6, Y7, plainSkip3)
	ADDQ R10, SI
	ADDQ R11, R14
	DECQ CX
	JNZ  plainP

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R12*1)
	VMOVUPD Y7, 32(DI)(R12*1)
	ADDQ $64, DI
	ADDQ $64, BX
	DECQ DX
	JNZ  plainTile
	VZEROUPPER
	RET

// GROUPROW is one row of the grouped kernel's step over four p: the row's
// four a (at AX) are skipped together when all are ±0 (VPTEST against the
// sign-less mask in Y14), else t = a0·b0; t += a1·b1; t += a2·b2;
// t += a3·b3; acc += t on both halves of the tile. Leaves AX on the next row.
#define GROUPROW(lo, hi, skip) \
	VMOVUPD (AX), Y15; \
	VPTEST Y14, Y15; \
	JZ     skip; \
	VBROADCASTSD (AX), Y10; \
	VMULPD (R14), Y10, Y11; \
	VMULPD 32(R14), Y10, Y12; \
	VBROADCASTSD 8(AX), Y10; \
	VMULPD (R13), Y10, Y13; \
	VADDPD Y13, Y11, Y11; \
	VMULPD 32(R13), Y10, Y13; \
	VADDPD Y13, Y12, Y12; \
	VBROADCASTSD 16(AX), Y10; \
	VMULPD (R15), Y10, Y13; \
	VADDPD Y13, Y11, Y11; \
	VMULPD 32(R15), Y10, Y13; \
	VADDPD Y13, Y12, Y12; \
	VBROADCASTSD 24(AX), Y10; \
	VMULPD (R12), Y10, Y13; \
	VADDPD Y13, Y11, Y11; \
	VMULPD 32(R12), Y10, Y13; \
	VADDPD Y13, Y12, Y12; \
	VADDPD Y11, lo, lo; \
	VADDPD Y12, hi, hi; \
skip: \
	ADDQ R9, AX

// func gemmGrouped(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kg, nt int)
//
// dst[r, 8t:8t+8] = Σ_g ((a[r,4g]·b[4g] + a[r,4g+1]·b[4g+1]) + a[r,4g+2]·b[4g+2]) + a[r,4g+3]·b[4g+3]
// for r < 4, t < nt, g < kg ascending, from +0. The k mod 4 tail is the
// plain kernel's, called on the stored tiles.
TEXT ·gemmGrouped(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R11
	MOVQ nt+56(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R10
	VPCMPEQQ Y14, Y14, Y14
	VPSRLQ $1, Y14, Y14

groupedTile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ a+16(FP), SI
	MOVQ BX, R14
	LEAQ (BX)(R11*1), R13
	LEAQ (BX)(R11*2), R15
	LEAQ (BX)(R10*1), R12
	MOVQ kg+48(FP), CX

groupedG:
	MOVQ SI, AX
	GROUPROW(Y0, Y1, groupedSkip0)
	GROUPROW(Y2, Y3, groupedSkip1)
	GROUPROW(Y4, Y5, groupedSkip2)
	GROUPROW(Y6, Y7, groupedSkip3)
	ADDQ $32, SI
	LEAQ (R14)(R11*4), R14
	LEAQ (R13)(R11*4), R13
	LEAQ (R15)(R11*4), R15
	LEAQ (R12)(R11*4), R12
	DECQ CX
	JNZ  groupedG

	LEAQ (R8)(R8*2), R12
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R12*1)
	VMOVUPD Y7, 32(DI)(R12*1)
	ADDQ $64, DI
	ADDQ $64, BX
	DECQ DX
	JNZ  groupedTile
	VZEROUPPER
	RET

// T2STEP adds a[r, p]·(b[j..j+3, p]) into the eight row accumulators for
// one p: off is p's byte offset inside the current group of four, T the
// transposed vector of b at that p. Rows 0–3 hang off SI, rows 4–7 off AX.
#define T2STEP(off, T) \
	VBROADCASTSD off(SI), Y12; \
	VMULPD T, Y12, Y12; \
	VADDPD Y12, Y0, Y0; \
	VBROADCASTSD off(SI)(R9*1), Y13; \
	VMULPD T, Y13, Y13; \
	VADDPD Y13, Y1, Y1; \
	VBROADCASTSD off(SI)(R9*2), Y14; \
	VMULPD T, Y14, Y14; \
	VADDPD Y14, Y2, Y2; \
	VBROADCASTSD off(SI)(R13*1), Y15; \
	VMULPD T, Y15, Y15; \
	VADDPD Y15, Y3, Y3; \
	VBROADCASTSD off(AX), Y12; \
	VMULPD T, Y12, Y12; \
	VADDPD Y12, Y4, Y4; \
	VBROADCASTSD off(AX)(R9*1), Y13; \
	VMULPD T, Y13, Y13; \
	VADDPD Y13, Y5, Y5; \
	VBROADCASTSD off(AX)(R9*2), Y14; \
	VMULPD T, Y14, Y14; \
	VADDPD Y14, Y6, Y6; \
	VBROADCASTSD off(AX)(R13*1), Y15; \
	VMULPD T, Y15, Y15; \
	VADDPD Y15, Y7, Y7

// func gemmTransposed(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kg, nt int)
//
// dst[r, 4t:4t+4] = Σ_p a[r, p] · b[4t:4t+4, p] for r < 8, t < nt, p < 4·kg
// ascending, from +0: four rows of b × four p are loaded and transposed in
// registers, so no transposed copy of b exists anywhere. The k mod 4 tail
// is the portable body's, continued from the stored tiles.
TEXT ·gemmTransposed(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R11
	MOVQ nt+56(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12
	LEAQ (R9)(R9*2), R13
	LEAQ (R11)(R11*2), R10

transposedTile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ a+16(FP), SI
	LEAQ (SI)(R9*4), AX
	MOVQ BX, R14
	MOVQ kg+48(FP), CX

transposedG:
	VMOVUPD (R14), Y8
	VMOVUPD (R14)(R11*1), Y9
	VMOVUPD (R14)(R11*2), Y10
	VMOVUPD (R14)(R10*1), Y11
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VUNPCKLPD Y11, Y10, Y14
	VUNPCKHPD Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	T2STEP(0, Y8)
	T2STEP(8, Y9)
	T2STEP(16, Y10)
	T2STEP(24, Y11)
	ADDQ $32, SI
	ADDQ $32, AX
	ADDQ $32, R14
	DECQ CX
	JNZ  transposedG

	LEAQ (DI)(R8*4), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R8*2)
	VMOVUPD Y3, (DI)(R12*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R8*1)
	VMOVUPD Y6, (AX)(R8*2)
	VMOVUPD Y7, (AX)(R12*1)
	ADDQ $32, DI
	LEAQ (BX)(R11*4), BX
	DECQ DX
	JNZ  transposedTile
	VZEROUPPER
	RET

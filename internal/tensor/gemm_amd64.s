//go:build amd64 && !purego

#include "textflag.h"

// The register-tile micro-kernels behind MatMul / MatMulT1 / MatMulT2
// (matmul.go has the drivers, the package comment the contract), and the
// transpose that brings a@bᵀ to them. Every term is one VFMADD231PD — a
// fused multiply-add, rounded once — so each lane rounds exactly like one
// math.FMA of the portable loop it stands in for. Each call walks one tile
// row: nt tiles of dst left to right (4×8 in YMM registers, 4×16 in ZMM),
// eight accumulators (two per row) held over the whole p loop of a tile.
// The loads are two vectors of b and four broadcasts of a per eight
// multiply-adds, so the FMA ports, not the loads, bound a tile. Strides
// arrive in elements and are scaled to bytes here.

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

// PLAINROW is one row of the plain kernel's step at p: the row's scalar of a
// broadcast against the two vectors of b[p] held in Y8/Y9.
#define PLAINROW(aaddr, T, lo, hi) \
	VBROADCASTSD aaddr, T; \
	VFMADD231PD  Y8, T, lo; \
	VFMADD231PD  Y9, T, hi

// func gemmPlain(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int, add bool)
//
// dst[r, 8t:8t+8] = fma(a[r·ars + p·aps], b[p, 8t:8t+8], ·) chained over
// p < k ascending, for r < 4 and t < nt: from +0, or from dst when add. k ≥ 1.
TEXT ·gemmPlain(SB), NOSPLIT, $0-73
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
	CMPB add+72(FP), $0
	JNE  plainLoad
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP  plainStart

plainLoad:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R12*1), Y6
	VMOVUPD 32(DI)(R12*1), Y7

plainStart:
	MOVQ a+16(FP), SI
	MOVQ BX, R14
	MOVQ k+56(FP), CX

plainP:
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y9
	PLAINROW((SI), Y10, Y0, Y1)
	PLAINROW((SI)(R9*1), Y11, Y2, Y3)
	PLAINROW((SI)(R9*2), Y12, Y4, Y5)
	PLAINROW((SI)(R13*1), Y13, Y6, Y7)
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

// PLAIN512ROW is one row of the 512-bit kernel's step at p: the row's
// scalar of a broadcast against the two vectors of b[p] held in Z8/Z9.
#define PLAIN512ROW(aaddr, T, lo, hi) \
	VBROADCASTSD aaddr, T; \
	VFMADD231PD  Z8, T, lo; \
	VFMADD231PD  Z9, T, hi

// func gemmPlain512(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int, add bool)
//
// gemmPlain on 4×16 tiles of dst in AVX-512 registers: dst[r, 16t:16t+16]
// for r < 4, t < nt, every term one VFMADD231PD in the same order.
TEXT ·gemmPlain512(SB), NOSPLIT, $0-73
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

plain512Tile:
	CMPB add+72(FP), $0
	JNE  plain512Load
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP  plain512Start

plain512Load:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R8*1), Z2
	VMOVUPD 64(DI)(R8*1), Z3
	VMOVUPD (DI)(R8*2), Z4
	VMOVUPD 64(DI)(R8*2), Z5
	VMOVUPD (DI)(R12*1), Z6
	VMOVUPD 64(DI)(R12*1), Z7

plain512Start:
	MOVQ a+16(FP), SI
	MOVQ BX, R14
	MOVQ k+56(FP), CX

plain512P:
	VMOVUPD (R14), Z8
	VMOVUPD 64(R14), Z9
	PLAIN512ROW((SI), Z10, Z0, Z1)
	PLAIN512ROW((SI)(R9*1), Z11, Z2, Z3)
	PLAIN512ROW((SI)(R9*2), Z12, Z4, Z5)
	PLAIN512ROW((SI)(R13*1), Z13, Z6, Z7)
	ADDQ R10, SI
	ADDQ R11, R14
	DECQ CX
	JNZ  plain512P

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R8*1)
	VMOVUPD Z3, 64(DI)(R8*1)
	VMOVUPD Z4, (DI)(R8*2)
	VMOVUPD Z5, 64(DI)(R8*2)
	VMOVUPD Z6, (DI)(R12*1)
	VMOVUPD Z7, 64(DI)(R12*1)
	ADDQ $128, DI
	ADDQ $128, BX
	DECQ DX
	JNZ  plain512Tile
	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 block in Y0–Y3 (rows of src) into Y0–Y3
// (rows of dst), through Y4–Y7.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// func transposeTiles(dst *float64, ldd int, src *float64, lds int, rows, cols int)
//
// dst[p, j] = src[j, p] for j < 4·rows, p < 8·cols: 4×8 blocks — four rows
// of src, a cache line of each — stored as eight rows of dst, transposed in
// registers as two 4×4 halves. Blocks run along dst's rows, so the stores
// stream: the strides of a weight matrix are powers of two often enough
// that walking dst's columns would put every store of a pass in one or two
// L1 sets.
TEXT ·transposeTiles(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	MOVQ cols+40(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R11
	LEAQ (R9)(R9*2), R10

transposeCol:
	MOVQ SI, R12
	MOVQ DI, R13
	LEAQ (DI)(R8*4), R14
	MOVQ rows+32(FP), CX

transposeBlock:
	VMOVUPD (R12), Y0
	VMOVUPD (R12)(R9*1), Y1
	VMOVUPD (R12)(R9*2), Y2
	VMOVUPD (R12)(R10*1), Y3
	VMOVUPD 32(R12), Y8
	VMOVUPD 32(R12)(R9*1), Y9
	VMOVUPD 32(R12)(R9*2), Y10
	VMOVUPD 32(R12)(R10*1), Y11
	TRANSPOSE4
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R8*1)
	VMOVUPD Y2, (R13)(R8*2)
	VMOVUPD Y3, (R13)(R11*1)
	VMOVAPD Y8, Y0
	VMOVAPD Y9, Y1
	VMOVAPD Y10, Y2
	VMOVAPD Y11, Y3
	TRANSPOSE4
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, (R14)(R8*1)
	VMOVUPD Y2, (R14)(R8*2)
	VMOVUPD Y3, (R14)(R11*1)
	LEAQ    (R12)(R9*4), R12
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    CX
	JNZ     transposeBlock

	ADDQ $64, SI
	LEAQ (DI)(R8*8), DI
	DECQ DX
	JNZ  transposeCol
	VZEROUPPER
	RET

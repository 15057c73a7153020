//go:build amd64 && !purego

#include "textflag.h"

// The AVX-512 element-wise row kernels behind AddRow, AddScaledRowTo and
// ScaleRow (ops.go): eight lanes per instruction, four vectors per loop
// trip, each lane the scalar loop's operations — a product rounded on its
// own (VMULPD), then the sum (VADDPD), never fused.
// n is a multiple of 8; the callers run the remainder in Go.

// func addRow512(dst, src *float64, n int)
//
// dst[j] += src[j] for j < n.
TEXT ·addRow512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	CMPQ CX, $4
	JB   addOne

addFour:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VADDPD  (SI), Z0, Z0
	VADDPD  64(SI), Z1, Z1
	VADDPD  128(SI), Z2, Z2
	VADDPD  192(SI), Z3, Z3
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     addFour

addOne:
	TESTQ CX, CX
	JZ    addDone
	VMOVUPD (DI), Z0
	VADDPD  (SI), Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JMP     addOne

addDone:
	VZEROUPPER
	RET

// func addScaledRowTo512(dst, base, src *float64, a float64, n int)
//
// dst[j] = base[j] + a·src[j] for j < n; dst is base or overlaps neither.
TEXT ·addScaledRowTo512(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         base+8(FP), BX
	MOVQ         src+16(FP), SI
	VBROADCASTSD a+24(FP), Z8
	MOVQ         n+32(FP), CX
	SHRQ         $3, CX
	CMPQ         CX, $4
	JB           scaledOne

scaledFour:
	VMULPD  (SI), Z8, Z4
	VMULPD  64(SI), Z8, Z5
	VMULPD  128(SI), Z8, Z6
	VMULPD  192(SI), Z8, Z7
	VADDPD  (BX), Z4, Z4
	VADDPD  64(BX), Z5, Z5
	VADDPD  128(BX), Z6, Z6
	VADDPD  192(BX), Z7, Z7
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	VMOVUPD Z6, 128(DI)
	VMOVUPD Z7, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, BX
	ADDQ    $256, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     scaledFour

scaledOne:
	TESTQ CX, CX
	JZ    scaledDone
	VMULPD  (SI), Z8, Z4
	VADDPD  (BX), Z4, Z4
	VMOVUPD Z4, (DI)
	ADDQ    $64, SI
	ADDQ    $64, BX
	ADDQ    $64, DI
	DECQ    CX
	JMP     scaledOne

scaledDone:
	VZEROUPPER
	RET

// func scaleRow512(dst, src *float64, a float64, n int)
//
// dst[j] = a·src[j] for j < n.
TEXT ·scaleRow512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD a+16(FP), Z8
	MOVQ         n+24(FP), CX
	SHRQ         $3, CX
	CMPQ         CX, $4
	JB           scaleOne

scaleFour:
	VMULPD  (SI), Z8, Z4
	VMULPD  64(SI), Z8, Z5
	VMULPD  128(SI), Z8, Z6
	VMULPD  192(SI), Z8, Z7
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	VMOVUPD Z6, 128(DI)
	VMOVUPD Z7, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     scaleFour

scaleOne:
	TESTQ CX, CX
	JZ    scaleDone
	VMULPD  (SI), Z8, Z4
	VMOVUPD Z4, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JMP     scaleOne

scaleDone:
	VZEROUPPER
	RET

//go:build amd64 && !purego

#include "textflag.h"

// The AVX-512 row kernels behind GeLURow and GeLUGradRow (activation.go):
// eight lanes of gelu / GeLUGrad per step, every lane the exact sequence of
// roundings of the scalar code — the same constants (actK), the same
// operations in the same order, unfused — on exp's normal path: e^−|v|
// scaled by adding k to its exponent. A lane whose k would leave that path
// (−|v| below about −708, or a NaN) sets the returned flag, and the caller
// recomputes the row in Go.

// GELUCORE computes, for x in Z0: Z4 = σ(2u) = s, Z2 = d = 1/(1 + a),
// Z3 = a·d, with a = e^−|2u|, and ORs the lanes off exp's normal path into
// K7. Constants: Z11–Z31 as loaded by GELUCONST.
#define GELUCORE \
	VMULPD   Z16, Z0, Z1; \
	VMULPD   Z0, Z1, Z1; \
	VMULPD   Z0, Z1, Z1; \
	VADDPD   Z1, Z0, Z1; \
	VMULPD   Z17, Z1, Z1; \
	VPTESTMQ Z18, Z1, K1; \
	VPORQ    Z18, Z1, Z2; \
	VMULPD   Z19, Z2, Z3; \
	VADDPD   Z20, Z3, Z3; \
	VSUBPD   Z20, Z3, Z4; \
	VCMPPD   $9, Z25, Z4, K2; \
	KORW     K2, K7, K7; \
	VPSLLQ   $52, Z3, Z3; \
	VMULPD   Z21, Z4, Z5; \
	VSUBPD   Z5, Z2, Z5; \
	VMULPD   Z22, Z4, Z6; \
	VSUBPD   Z6, Z5, Z7; \
	VMULPD   Z7, Z7, Z8; \
	VMULPD   Z8, Z8, Z9; \
	VMULPD   Z27, Z7, Z10; \
	VADDPD   Z26, Z10, Z10; \
	VMULPD   Z29, Z7, Z4; \
	VADDPD   Z28, Z4, Z4; \
	VMULPD   Z8, Z4, Z4; \
	VADDPD   Z4, Z10, Z10; \
	VMULPD   Z31, Z7, Z4; \
	VADDPD   Z30, Z4, Z4; \
	VMULPD   Z15, Z7, Z2; \
	VADDPD   Z14, Z2, Z2; \
	VMULPD   Z8, Z2, Z2; \
	VADDPD   Z2, Z4, Z4; \
	VMULPD   Z13, Z7, Z2; \
	VADDPD   Z12, Z2, Z2; \
	VMULPD   Z11, Z7, Z1; \
	VADDPD.BCST ·actK+80(SB), Z1, Z1; \
	VMULPD   Z8, Z1, Z1; \
	VADDPD   Z1, Z2, Z2; \
	VMULPD   Z9, Z2, Z2; \
	VADDPD   Z2, Z4, Z4; \
	VMULPD   Z9, Z4, Z4; \
	VADDPD   Z4, Z10, Z10; \
	VMULPD   Z10, Z8, Z10; \
	VSUBPD   Z6, Z10, Z10; \
	VADDPD   Z10, Z5, Z10; \
	VADDPD   Z23, Z10, Z10; \
	VPADDQ   Z3, Z10, Z10; \
	VADDPD   Z23, Z10, Z1; \
	VDIVPD   Z1, Z23, Z2; \
	VMULPD   Z2, Z10, Z3; \
	VMOVAPD  Z2, Z4; \
	VMOVAPD  Z3, K1, Z4

// GELUCONST loads actK into the registers GELUCORE reads.
#define GELUCONST \
	VBROADCASTSD ·actK+0(SB), Z16; \
	VBROADCASTSD ·actK+8(SB), Z17; \
	VBROADCASTSD ·actK+16(SB), Z18; \
	VBROADCASTSD ·actK+24(SB), Z19; \
	VBROADCASTSD ·actK+32(SB), Z20; \
	VBROADCASTSD ·actK+40(SB), Z21; \
	VBROADCASTSD ·actK+48(SB), Z22; \
	VBROADCASTSD ·actK+56(SB), Z23; \
	VBROADCASTSD ·actK+64(SB), Z24; \
	VBROADCASTSD ·actK+72(SB), Z25; \
	VBROADCASTSD ·actK+88(SB), Z11; \
	VBROADCASTSD ·actK+96(SB), Z12; \
	VBROADCASTSD ·actK+104(SB), Z13; \
	VBROADCASTSD ·actK+112(SB), Z14; \
	VBROADCASTSD ·actK+120(SB), Z15; \
	VBROADCASTSD ·actK+128(SB), Z28; \
	VBROADCASTSD ·actK+136(SB), Z29; \
	VBROADCASTSD ·actK+144(SB), Z30; \
	VBROADCASTSD ·actK+152(SB), Z31; \
	VBROADCASTSD ·actK+160(SB), Z26; \
	VBROADCASTSD ·actK+168(SB), Z27; \
	KXORW        K7, K7, K7

// func geluRow512(dst, x *float64, n int) (special bool)
//
// dst[j] = gelu(x[j]) for j < n, n a multiple of 8.
TEXT ·geluRow512(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	GELUCONST

geluLoop:
	VMOVUPD (SI), Z0
	GELUCORE
	VMULPD  Z4, Z0, Z5
	VMOVUPD Z5, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     geluLoop

	KORTESTW K7, K7
	SETNE    special+24(FP)
	VZEROUPPER
	RET

// func geluGradRow512(dst, dy, x *float64, n int) (special bool)
//
// dst[j] = dy[j]·GeLUGrad(x[j]) for j < n, n a multiple of 8.
TEXT ·geluGradRow512(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	GELUCONST

geluGradLoop:
	VMOVUPD (SI), Z0
	GELUCORE
	VMULPD  Z2, Z3, Z3
	VMULPD  Z24, Z0, Z5
	VMULPD  Z0, Z5, Z5
	VADDPD  Z23, Z5, Z5
	VMULPD  Z3, Z0, Z6
	VMULPD  Z17, Z6, Z6
	VMULPD  Z5, Z6, Z6
	VADDPD  Z6, Z4, Z6
	VMULPD  (DX), Z6, Z6
	VMOVUPD Z6, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     geluGradLoop

	KORTESTW K7, K7
	SETNE    special+32(FP)
	VZEROUPPER
	RET

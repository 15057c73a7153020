#include "textflag.h"

// func sum() uint64
TEXT ·sum(SB), NOSPLIT, $0-8
	MOVQ ·table+0(SB), AX
	ADDQ ·table+8(SB), AX
	MOVQ AX, ret+0(FP)
	RET

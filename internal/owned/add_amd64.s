#include "textflag.h"

// func add(v *atomic.Uint64, n uint64)
TEXT ·add(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), AX
	MOVQ n+8(FP), BX
	ADDQ (AX), BX
	MOVQ BX, (AX)
	RET

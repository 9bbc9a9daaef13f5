#include "textflag.h"

// SSE2 only (the amd64 baseline): every arithmetic op is a packed
// MULPD, ADDPD, SUBPD, DIVPD or SQRTPD, whose lanes round like the
// scalar ops of the Go twins in train.go. X15 and R14 are left alone.

// func convValid16(dst []float64, bias float64, w []float64, xs [][]float64, k int)
TEXT ·convValid16(SB), NOSPLIT, $0-88
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVSD bias+24(FP), X14
	UNPCKLPD X14, X14
	MOVQ  w_base+32(FP), R8
	MOVQ  xs_base+56(FP), R9
	MOVQ  xs_len+64(FP), R10
	MOVQ  k+80(FP), R11
	XORQ  BX, BX // first output of the block

convBlockLoop:
	// Sixteen outputs dst[BX:BX+16] in X0..X7, each starting at bias.
	MOVAPD X14, X0
	MOVAPD X14, X1
	MOVAPD X14, X2
	MOVAPD X14, X3
	MOVAPD X14, X4
	MOVAPD X14, X5
	MOVAPD X14, X6
	MOVAPD X14, X7
	MOVQ   R9, SI  // &xs[c]
	MOVQ   R8, DX  // &w[c*k+i]
	MOVQ   R10, R12

convRowLoop:
	MOVQ (SI), AX
	LEAQ (AX)(BX*8), AX // &xs[c][BX+i]
	MOVQ R11, R13

convTapLoop:
	MOVSD    (DX), X8
	UNPCKLPD X8, X8
	MOVUPD   (AX), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(AX), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   32(AX), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   48(AX), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	MOVUPD   64(AX), X13
	MULPD    X8, X13
	ADDPD    X13, X4
	MOVUPD   80(AX), X9
	MULPD    X8, X9
	ADDPD    X9, X5
	MOVUPD   96(AX), X10
	MULPD    X8, X10
	ADDPD    X10, X6
	MOVUPD   112(AX), X11
	MULPD    X8, X11
	ADDPD    X11, X7
	ADDQ     $8, AX
	ADDQ     $8, DX
	DECQ     R13
	JNZ      convTapLoop
	ADDQ     $24, SI
	DECQ     R12
	JNZ      convRowLoop

	LEAQ   (DI)(BX*8), AX
	MOVUPD X0, (AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	MOVUPD X4, 64(AX)
	MOVUPD X5, 80(AX)
	MOVUPD X6, 96(AX)
	MOVUPD X7, 112(AX)

	// Next block; the last one ends at len(dst), overlapping its
	// predecessor when len(dst) is not a multiple of 16.
	ADDQ $16, BX
	CMPQ BX, CX
	JGE  convDone
	MOVQ CX, AX
	SUBQ $16, AX
	CMPQ BX, AX
	JLE  convBlockLoop
	MOVQ AX, BX
	JMP  convBlockLoop

convDone:
	RET

// func convValid4(dst []float64, bias float64, w []float64, xs [][]float64, k int)
TEXT ·convValid4(SB), NOSPLIT, $0-88
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVSD bias+24(FP), X14
	UNPCKLPD X14, X14
	MOVQ  w_base+32(FP), R8
	MOVQ  xs_base+56(FP), R9
	MOVQ  xs_len+64(FP), R10
	MOVQ  k+80(FP), R11
	XORQ  BX, BX

conv4BlockLoop:
	// Four outputs dst[BX:BX+4] in X0, X1, each starting at bias.
	MOVAPD X14, X0
	MOVAPD X14, X1
	MOVQ   R9, SI
	MOVQ   R8, DX
	MOVQ   R10, R12

conv4RowLoop:
	MOVQ (SI), AX
	LEAQ (AX)(BX*8), AX
	MOVQ R11, R13

conv4TapLoop:
	MOVSD    (DX), X8
	UNPCKLPD X8, X8
	MOVUPD   (AX), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(AX), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	ADDQ     $8, AX
	ADDQ     $8, DX
	DECQ     R13
	JNZ      conv4TapLoop
	ADDQ     $24, SI
	DECQ     R12
	JNZ      conv4RowLoop

	LEAQ   (DI)(BX*8), AX
	MOVUPD X0, (AX)
	MOVUPD X1, 16(AX)

	ADDQ $4, BX
	CMPQ BX, CX
	JGE  conv4Done
	MOVQ CX, AX
	SUBQ $4, AX
	CMPQ BX, AX
	JLE  conv4BlockLoop
	MOVQ AX, BX
	JMP  conv4BlockLoop

conv4Done:
	RET

// func lagDot8x(acc *[16]float64, g []float64, xs *[8]*float64)
TEXT ·lagDot8x(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ g_base+8(FP), SI
	MOVQ g_len+16(FP), CX
	MOVQ xs+32(FP), DX
	MOVQ 0(DX), R8
	MOVQ 8(DX), R9
	MOVQ 16(DX), R10
	MOVQ 24(DX), R11
	MOVQ 32(DX), R12
	MOVQ 40(DX), R13
	MOVQ 48(DX), BX
	MOVQ 56(DX), DX
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	XORQ   AX, AX

lagLoop:
	MOVSD    (SI)(AX*8), X8
	UNPCKLPD X8, X8
	MOVUPD   (R8)(AX*8), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   (R9)(AX*8), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   (R10)(AX*8), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   (R11)(AX*8), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	MOVUPD   (R12)(AX*8), X13
	MULPD    X8, X13
	ADDPD    X13, X4
	MOVUPD   (R13)(AX*8), X9
	MULPD    X8, X9
	ADDPD    X9, X5
	MOVUPD   (BX)(AX*8), X10
	MULPD    X8, X10
	ADDPD    X10, X6
	MOVUPD   (DX)(AX*8), X11
	MULPD    X8, X11
	ADDPD    X11, X7
	INCQ     AX
	CMPQ     AX, CX
	JLT      lagLoop

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET

// func adamStep2(w, m, v, grad *float64, n int, c *AdamConsts)
TEXT ·adamStep2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX

	// Broadcast the AdamConsts fields, in declaration order.
	MOVSD    0(AX), X5 // Batch
	UNPCKLPD X5, X5
	MOVSD    8(AX), X6 // L2
	UNPCKLPD X6, X6
	MOVSD    16(AX), X7 // Beta1
	UNPCKLPD X7, X7
	MOVSD    24(AX), X8 // OneMinusBeta1
	UNPCKLPD X8, X8
	MOVSD    32(AX), X9 // Beta2
	UNPCKLPD X9, X9
	MOVSD    40(AX), X10 // OneMinusBeta2
	UNPCKLPD X10, X10
	MOVSD    48(AX), X11 // LR
	UNPCKLPD X11, X11
	MOVSD    56(AX), X12 // Corr1
	UNPCKLPD X12, X12
	MOVSD    64(AX), X13 // Corr2
	UNPCKLPD X13, X13
	MOVSD    72(AX), X14 // Eps
	UNPCKLPD X14, X14
	XORQ     BX, BX

adamLoop:
	// g = grad/Batch + L2·w
	MOVUPD (R8)(BX*8), X0
	DIVPD  X5, X0
	MOVUPD (DI)(BX*8), X1
	MOVAPD X1, X2
	MULPD  X6, X2
	ADDPD  X2, X0

	// m = Beta1·m + OneMinusBeta1·g
	MOVUPD (SI)(BX*8), X2
	MULPD  X7, X2
	MOVAPD X0, X3
	MULPD  X8, X3
	ADDPD  X3, X2
	MOVUPD X2, (SI)(BX*8)

	// v = Beta2·v + (OneMinusBeta2·g)·g
	MOVUPD (DX)(BX*8), X3
	MULPD  X9, X3
	MOVAPD X0, X4
	MULPD  X10, X4
	MULPD  X0, X4
	ADDPD  X4, X3
	MOVUPD X3, (DX)(BX*8)

	// w -= (LR·(m/Corr1)) / (√(v/Corr2) + Eps)
	DIVPD  X12, X2
	MULPD  X11, X2
	DIVPD  X13, X3
	SQRTPD X3, X3
	ADDPD  X14, X3
	DIVPD  X3, X2
	SUBPD  X2, X1
	MOVUPD X1, (DI)(BX*8)

	ADDQ $2, BX
	CMPQ BX, CX
	JLT  adamLoop
	RET

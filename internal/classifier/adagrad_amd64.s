//go:build !race

#include "textflag.h"

// func adagradAVX2(rows [][]float64, stride int, vals []float64, active []int32, ga []float64, l2, lr float64)
//
// For every row k, in order, with weights w at its start and accumulators
// g at its last stride values of capacity (acc), and every active class
// c = active[j], in this order and with no FMA:
//	grad = (ga[j]*vals[k]) + (l2*w[c])
//	g[c] = g[c] + grad*grad
//	w[c] = w[c] - (lr*grad) / (sqrt(g[c]) + 1e-8)
// Every instruction is VEX-encoded: one legacy-SSE instruction costs an
// SSE/AVX transition on every call. The bit-identity argument is in
// adagradAVX2's Go declaration.
//
// Registers: R8 the stride, R9 walks the row headers (24 bytes each) up
// to R15 and R10 the values, R11 active, R12 len(active), R13 ga; per row
// BX/AX point at its weights and its accumulators, CX is j, and DX, DI,
// SI, R14 hold four classes. Y12 holds the row's value, Y13 l2, Y14 lr
// and Y15 1e-8, in every lane.
TEXT ·adagradAVX2(SB), NOSPLIT, $0-120
	MOVQ rows_base+0(FP), R9
	MOVQ rows_len+8(FP), R15
	LEAQ (R15)(R15*2), R15
	LEAQ (R9)(R15*8), R15
	MOVQ stride+24(FP), R8
	MOVQ vals_base+32(FP), R10
	MOVQ active_base+56(FP), R11
	MOVQ active_len+64(FP), R12
	MOVQ ga_base+80(FP), R13
	VBROADCASTSD l2+104(FP), Y13
	VBROADCASTSD lr+112(FP), Y14
	MOVQ $0x3e45798ee2308c3a, AX // 1e-8
	VMOVQ AX, X15
	VBROADCASTSD X15, Y15

row:
	CMPQ R9, R15
	JGE  done
	MOVQ (R9), BX
	MOVQ 16(R9), AX
	SUBQ R8, AX
	LEAQ (BX)(AX*8), AX
	VBROADCASTSD (R10), Y12
	XORQ CX, CX

quad:
	// Four classes per iteration, while at least four are left.
	LEAQ 4(CX), DX
	CMPQ DX, R12
	JGT  tail
	MOVLQSX 0(R11)(CX*4), DX
	MOVLQSX 4(R11)(CX*4), DI
	MOVLQSX 8(R11)(CX*4), SI
	MOVLQSX 12(R11)(CX*4), R14

	// Y0 = w, Y2 = gsq of the four classes.
	VMOVSD      (BX)(DX*8), X0
	VMOVHPD     (BX)(DI*8), X0, X0
	VMOVSD      (BX)(SI*8), X1
	VMOVHPD     (BX)(R14*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVSD      (AX)(DX*8), X2
	VMOVHPD     (AX)(DI*8), X2, X2
	VMOVSD      (AX)(SI*8), X3
	VMOVHPD     (AX)(R14*8), X3, X3
	VINSERTF128 $1, X3, Y2, Y2

	VMULPD  (R13)(CX*8), Y12, Y4 // ga*x
	VMULPD  Y0, Y13, Y5          // l2*w
	VADDPD  Y5, Y4, Y4           // grad
	VMULPD  Y4, Y4, Y5
	VADDPD  Y5, Y2, Y2           // gsq += grad*grad
	VSQRTPD Y2, Y5
	VADDPD  Y15, Y5, Y5          // sqrt(gsq) + 1e-8
	VMULPD  Y4, Y14, Y6          // lr*grad
	VDIVPD  Y5, Y6, Y6
	VSUBPD  Y6, Y0, Y0           // w -= lr*grad / (sqrt(gsq) + 1e-8)

	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X0, (BX)(DX*8)
	VMOVHPD      X0, (BX)(DI*8)
	VMOVSD       X1, (BX)(SI*8)
	VMOVHPD      X1, (BX)(R14*8)
	VEXTRACTF128 $1, Y2, X3
	VMOVSD       X2, (AX)(DX*8)
	VMOVHPD      X2, (AX)(DI*8)
	VMOVSD       X3, (AX)(SI*8)
	VMOVHPD      X3, (AX)(R14*8)
	ADDQ         $4, CX
	JMP          quad

tail:
	// The last zero to three classes, one at a time in the low lane.
	CMPQ    CX, R12
	JGE     next
	MOVLQSX (R11)(CX*4), DX
	VMOVSD  (BX)(DX*8), X0
	VMOVSD  (AX)(DX*8), X2
	VMOVSD  (R13)(CX*8), X4
	VMULSD  X12, X4, X4
	VMULSD  X0, X13, X5
	VADDSD  X5, X4, X4
	VMULSD  X4, X4, X5
	VADDSD  X5, X2, X2
	VSQRTSD X2, X2, X5
	VADDSD  X15, X5, X5
	VMULSD  X4, X14, X6
	VDIVSD  X5, X6, X6
	VSUBSD  X6, X0, X0
	VMOVSD  X0, (BX)(DX*8)
	VMOVSD  X2, (AX)(DX*8)
	INCQ    CX
	JMP     tail

next:
	ADDQ $24, R9
	ADDQ $8, R10
	JMP  row

done:
	VZEROUPPER
	RET

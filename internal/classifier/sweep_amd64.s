//go:build !race

#include "textflag.h"

// func sweepAVX2Rows(scores []float64, rows [][]float64, xs []float64)
//
// For the rows in groups of four, and then for each leftover row, for
// every class j, in this order and with no FMA:
//	scores[j] = (((scores[j] + r0[j]*x0) + r1[j]*x1) + r2[j]*x2) + r3[j]*x3
//	scores[j] = scores[j] + r[j]*x
// The bit-identity argument is in sweepAVX2Rows's Go declaration.
//
// Registers: DI scores, CX len(scores); SI walks the row headers (24
// bytes each) and R12 the values, BX counts the rows left; R8-R11 point
// at a group's rows, AX is the class and DX its bound. Y4-Y7 hold the
// group's values in every lane (Y4 a leftover row's).
TEXT ·sweepAVX2Rows(SB), NOSPLIT, $0-72
	MOVQ scores_base+0(FP), DI
	MOVQ scores_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ rows_len+32(FP), BX
	MOVQ xs_base+48(FP), R12

group:
	CMPQ BX, $4
	JLT  single
	MOVQ (SI), R8
	MOVQ 24(SI), R9
	MOVQ 48(SI), R10
	MOVQ 72(SI), R11
	VBROADCASTSD (R12), Y4
	VBROADCASTSD 8(R12), Y5
	VBROADCASTSD 16(R12), Y6
	VBROADCASTSD 24(R12), Y7
	XORQ AX, AX

	// Eight classes per iteration, as two independent YMM chains.
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   quad

loop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y4, Y2
	VMULPD  32(R8)(AX*8), Y4, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R9)(AX*8), Y5, Y2
	VMULPD  32(R9)(AX*8), Y5, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R10)(AX*8), Y6, Y2
	VMULPD  32(R10)(AX*8), Y6, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R11)(AX*8), Y7, Y2
	VMULPD  32(R11)(AX*8), Y7, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop8

quad:
	// Four more classes, if at least four are left.
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JLT  tail
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y4, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R9)(AX*8), Y5, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10)(AX*8), Y6, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R11)(AX*8), Y7, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	// The last zero to three classes, one at a time in the low lane
	// (the low lane of each Y4-Y7 holds x0-x3).
	CMPQ AX, CX
	JGE  nextgroup
	VMOVSD (DI)(AX*8), X0
	VMULSD (R8)(AX*8), X4, X2
	VADDSD X2, X0, X0
	VMULSD (R9)(AX*8), X5, X2
	VADDSD X2, X0, X0
	VMULSD (R10)(AX*8), X6, X2
	VADDSD X2, X0, X0
	VMULSD (R11)(AX*8), X7, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    tail

nextgroup:
	ADDQ $96, SI
	ADDQ $32, R12
	SUBQ $4, BX
	JMP  group

single:
	// The leftover zero to three rows, one pass each: four classes per
	// iteration, then the last zero to three in the low lane.
	TESTQ BX, BX
	JEQ   done
	MOVQ  (SI), R8
	VBROADCASTSD (R12), Y4
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-4, DX
	JZ    stail

sloop4:
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y4, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     sloop4

stail:
	CMPQ   AX, CX
	JGE    snext
	VMOVSD (DI)(AX*8), X0
	VMULSD (R8)(AX*8), X4, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    stail

snext:
	ADDQ $24, SI
	ADDQ $8, R12
	DECQ BX
	JMP  single

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

//go:build !race

#include "textflag.h"

// func sweep4AVX2(scores, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64)
//
// For every class j, in this order and with no FMA:
//	scores[j] = (((scores[j] + r0[j]*x0) + r1[j]*x1) + r2[j]*x2) + r3[j]*x3
// The bit-identity argument is in sweep4AVX2's Go declaration.
TEXT ·sweep4AVX2(SB), NOSPLIT, $0-152
	MOVQ scores_base+0(FP), DI
	MOVQ scores_len+8(FP), CX
	MOVQ r0_base+24(FP), R8
	MOVQ r1_base+48(FP), R9
	MOVQ r2_base+72(FP), R10
	MOVQ r3_base+96(FP), R11
	VBROADCASTSD x0+120(FP), Y4
	VBROADCASTSD x1+128(FP), Y5
	VBROADCASTSD x2+136(FP), Y6
	VBROADCASTSD x3+144(FP), Y7
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
	JGE  done
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

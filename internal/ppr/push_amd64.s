#include "textflag.h"

// func pushRowAVX2(cols []int32, norms []float64, c float64, x *lanes, m uint8, nxt []lanes, nxtMask []uint8, touched []uint64)
TEXT ·pushRowAVX2(SB), NOSPLIT, $0-144
	MOVQ    cols_base+0(FP), SI
	MOVQ    cols_len+8(FP), CX
	MOVQ    norms_base+24(FP), DI
	VMOVSD  c+48(FP), X0
	MOVQ    x+56(FP), AX
	VMOVUPD (AX), Y1                // x[0:4]
	VMOVUPD 32(AX), Y2              // x[4:8]
	MOVBLZX m+64(FP), R10
	MOVQ    nxt_base+72(FP), R8
	MOVQ    nxtMask_base+96(FP), R9
	MOVQ    touched_base+120(FP), R11
	XORQ    BX, BX                  // k
	TESTQ   CX, CX
	JEQ     done

loop:
	MOVLQZX (SI)(BX*4), DX          // j = cols[k] (node IDs are non-negative)
	MOVBLZX (R9)(DX*1), R12         // nxtMask[j]
	TESTL   R12, R12
	JNE     marked
	MOVQ    DX, R13                 // first touch this pass: set bit j of touched
	SHRQ    $6, R13
	MOVQ    (R11)(R13*8), R14
	BTSQ    DX, R14
	MOVQ    R14, (R11)(R13*8)

marked:
	ORL     R10, R12
	MOVB    R12, (R9)(DX*1)         // nxtMask[j] |= m
	VMOVSD  (DI)(BX*8), X3
	VMULSD  X0, X3, X3              // w = c*norms[k], rounded once
	VBROADCASTSD X3, Y3
	VMULPD  Y1, Y3, Y4              // w*x[0:4], each lane rounded
	VMULPD  Y2, Y3, Y5              // w*x[4:8]
	SHLQ    $6, DX                  // byte offset of nxt[j]
	VADDPD  (R8)(DX*1), Y4, Y4      // nxt[j][0:4] + w*x[0:4]
	VADDPD  32(R8)(DX*1), Y5, Y5
	VMOVUPD Y4, (R8)(DX*1)
	VMOVUPD Y5, 32(R8)(DX*1)
	INCQ    BX
	CMPQ    BX, CX
	JNE     loop

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

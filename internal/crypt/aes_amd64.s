// AES-128 encryption of bucket keystream counter blocks with AES-NI.
//
// Round keys are the 11 AES-128 round keys in AES byte order, 176 bytes,
// laid out by expandKey. encBlocks encrypts n 16-byte blocks in place:
// eight at a time, so eight independent AESENC chains share each round
// key load and overlap in the AES unit, then the tail one block at a time.
// Every instruction here takes the same time whatever the key and data;
// the only branches test n, the public body length.

#include "textflag.h"

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX // CPUID.01H:ECX.AES[bit 25]
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND derives the next round key in X0 from the previous one: the
// AESKEYGENASSIST word (SubWord(RotWord(w3)) ^ rcon) broadcast, XORed with
// the prefix-XOR of the previous key's four words.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVO            X0, X2; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, off(DI)

// func expandKey(key *byte, xk *uint32)
TEXT ·expandKey(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   xk+8(FP), DI
	MOVUPS (AX), X0
	MOVUPS X0, 0(DI)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// ROUND8 runs one middle round on the eight blocks in X0-X7.
#define ROUND8(off) \
	MOVUPS off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3; \
	AESENC X8, X4; \
	AESENC X8, X5; \
	AESENC X8, X6; \
	AESENC X8, X7

// func encBlocks(xk *uint32, ks *byte, n int)
TEXT ·encBlocks(SB), NOSPLIT, $0-24
	MOVQ xk+0(FP), AX
	MOVQ ks+8(FP), DI
	MOVQ n+16(FP), CX

loop8:
	CMPQ   CX, $8
	JB     tail
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	MOVUPS 0(AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7
	ROUND8(16)
	ROUND8(32)
	ROUND8(48)
	ROUND8(64)
	ROUND8(80)
	ROUND8(96)
	ROUND8(112)
	ROUND8(128)
	ROUND8(144)
	MOVUPS 160(AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	SUBQ   $8, CX
	JMP    loop8

tail:
	TESTQ CX, CX
	JZ    done

tail1:
	MOVUPS     0(DI), X0
	MOVUPS     0(AX), X8
	PXOR       X8, X0
	MOVUPS     16(AX), X8
	AESENC     X8, X0
	MOVUPS     32(AX), X8
	AESENC     X8, X0
	MOVUPS     48(AX), X8
	AESENC     X8, X0
	MOVUPS     64(AX), X8
	AESENC     X8, X0
	MOVUPS     80(AX), X8
	AESENC     X8, X0
	MOVUPS     96(AX), X8
	AESENC     X8, X0
	MOVUPS     112(AX), X8
	AESENC     X8, X0
	MOVUPS     128(AX), X8
	AESENC     X8, X0
	MOVUPS     144(AX), X8
	AESENC     X8, X0
	MOVUPS     160(AX), X8
	AESENCLAST X8, X0
	MOVUPS     X0, 0(DI)
	ADDQ       $16, DI
	DECQ       CX
	JNZ        tail1

done:
	RET

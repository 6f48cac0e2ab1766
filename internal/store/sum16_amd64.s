//go:build amd64 && !purego

#include "textflag.h"

// block16 runs SHA-256's compression function over sixteen messages at once,
// one per 32-bit lane of a ZMM register, after Gueron and Krasnov,
// "Simultaneous Hashing of Multiple Messages" (2012). Lane k's message
// starts offsets[k] bytes past base; each call consumes blocks 64-byte
// blocks of every lane. The state is kept transposed: word j of lane k's
// chaining value is h[j][k].
//
// Registers: Z0-Z15 hold the message schedule W[t mod 16], Z16-Z23 the
// working variables a-h (their roles rotate one register a round, so no
// value is ever moved), Z24-Z27 temporaries, Z28 the byte-swap shuffle and
// Z29 the lane offsets. R8 points at the round constants of the current
// sixteen rounds.

// LOAD gathers big-endian word i of the current block of every lane into w,
// just before the round that first reads it, so the gathers overlap the
// rounds. The gather clears its mask as lanes complete, so the mask is
// refilled first.
#define LOAD(i, w) \
	KXNORW K1, K1, K1; \
	VPGATHERDD (i*4)(SI)(Z29*1), K1, w; \
	VPSHUFB Z28, w, w

// ROUND is round k of the current sixteen: h accumulates T1 = h + Σ1(e) +
// Ch(e, f, g) + K + W, d += T1 becomes the next e, and h += Σ0(a) + Maj(a,
// b, c) becomes the next a. VPTERNLOGD computes a three-input XOR (0x96),
// choose (0xca) and majority (0xe8) in one instruction each.
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD.BCST (k*4)(R8), w, Z24; \
	VPADDD Z24, h, h; \
	VPRORD $6, e, Z25; \
	VPRORD $11, e, Z26; \
	VPRORD $25, e, Z27; \
	VPTERNLOGD $0x96, Z27, Z26, Z25; \
	VPADDD Z25, h, h; \
	VMOVDQA32 e, Z25; \
	VPTERNLOGD $0xca, g, f, Z25; \
	VPADDD Z25, h, h; \
	VPADDD h, d, d; \
	VPRORD $2, a, Z25; \
	VPRORD $13, a, Z26; \
	VPRORD $22, a, Z27; \
	VPTERNLOGD $0x96, Z27, Z26, Z25; \
	VMOVDQA32 a, Z26; \
	VPTERNLOGD $0xe8, c, b, Z26; \
	VPADDD Z26, Z25, Z25; \
	VPADDD Z25, h, h

// SCHED extends the schedule in place: w16 (W[t-16]) becomes W[t] =
// σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
#define SCHED(w16, w15, w7, w2) \
	VPRORD $7, w15, Z25; \
	VPRORD $18, w15, Z26; \
	VPSRLD $3, w15, Z27; \
	VPTERNLOGD $0x96, Z27, Z26, Z25; \
	VPADDD Z25, w16, w16; \
	VPADDD w7, w16, w16; \
	VPRORD $17, w2, Z25; \
	VPRORD $19, w2, Z26; \
	VPSRLD $10, w2, Z27; \
	VPTERNLOGD $0x96, Z27, Z26, Z25; \
	VPADDD Z25, w16, w16

// func block16(h *[8][16]uint32, base *byte, offsets *[16]uint32, blocks int)
TEXT ·block16(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ offsets+16(FP), AX
	MOVQ blocks+24(FP), DX
	TESTQ DX, DX
	JZ   done
	VMOVDQU32 (AX), Z29
	VMOVDQU32 bswap<>(SB), Z28
	VMOVDQU32 0(DI), Z16
	VMOVDQU32 64(DI), Z17
	VMOVDQU32 128(DI), Z18
	VMOVDQU32 192(DI), Z19
	VMOVDQU32 256(DI), Z20
	VMOVDQU32 320(DI), Z21
	VMOVDQU32 384(DI), Z22
	VMOVDQU32 448(DI), Z23

block:
	LEAQ k256<>(SB), R8
	LOAD(0, Z0)
	ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z0, 0)
	LOAD(1, Z1)
	ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z1, 1)
	LOAD(2, Z2)
	ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z2, 2)
	LOAD(3, Z3)
	ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z3, 3)
	LOAD(4, Z4)
	ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z4, 4)
	LOAD(5, Z5)
	ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z5, 5)
	LOAD(6, Z6)
	ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z6, 6)
	LOAD(7, Z7)
	ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z7, 7)
	LOAD(8, Z8)
	ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z8, 8)
	LOAD(9, Z9)
	ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z9, 9)
	LOAD(10, Z10)
	ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z10, 10)
	LOAD(11, Z11)
	ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z11, 11)
	LOAD(12, Z12)
	ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z12, 12)
	LOAD(13, Z13)
	ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z13, 13)
	LOAD(14, Z14)
	ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z14, 14)
	LOAD(15, Z15)
	ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z15, 15)
	MOVQ $3, CX

rounds:
	ADDQ $64, R8
	SCHED(Z0, Z1, Z9, Z14)
	ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z0, 0)
	SCHED(Z1, Z2, Z10, Z15)
	ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z1, 1)
	SCHED(Z2, Z3, Z11, Z0)
	ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z2, 2)
	SCHED(Z3, Z4, Z12, Z1)
	ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z3, 3)
	SCHED(Z4, Z5, Z13, Z2)
	ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z4, 4)
	SCHED(Z5, Z6, Z14, Z3)
	ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z5, 5)
	SCHED(Z6, Z7, Z15, Z4)
	ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z6, 6)
	SCHED(Z7, Z8, Z0, Z5)
	ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z7, 7)
	SCHED(Z8, Z9, Z1, Z6)
	ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z8, 8)
	SCHED(Z9, Z10, Z2, Z7)
	ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z9, 9)
	SCHED(Z10, Z11, Z3, Z8)
	ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z10, 10)
	SCHED(Z11, Z12, Z4, Z9)
	ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z11, 11)
	SCHED(Z12, Z13, Z5, Z10)
	ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z12, 12)
	SCHED(Z13, Z14, Z6, Z11)
	ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z13, 13)
	SCHED(Z14, Z15, Z7, Z12)
	ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z14, 14)
	SCHED(Z15, Z0, Z8, Z13)
	ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z15, 15)
	DECQ CX
	JNZ  rounds

	VPADDD 0(DI), Z16, Z16
	VPADDD 64(DI), Z17, Z17
	VPADDD 128(DI), Z18, Z18
	VPADDD 192(DI), Z19, Z19
	VPADDD 256(DI), Z20, Z20
	VPADDD 320(DI), Z21, Z21
	VPADDD 384(DI), Z22, Z22
	VPADDD 448(DI), Z23, Z23
	VMOVDQU32 Z16, 0(DI)
	VMOVDQU32 Z17, 64(DI)
	VMOVDQU32 Z18, 128(DI)
	VMOVDQU32 Z19, 192(DI)
	VMOVDQU32 Z20, 256(DI)
	VMOVDQU32 Z21, 320(DI)
	VMOVDQU32 Z22, 384(DI)
	VMOVDQU32 Z23, 448(DI)
	ADDQ $64, SI
	DECQ DX
	JNZ  block
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// SHA-256's round constants.
DATA k256<>+0x00(SB)/4, $0x428a2f98
DATA k256<>+0x04(SB)/4, $0x71374491
DATA k256<>+0x08(SB)/4, $0xb5c0fbcf
DATA k256<>+0x0c(SB)/4, $0xe9b5dba5
DATA k256<>+0x10(SB)/4, $0x3956c25b
DATA k256<>+0x14(SB)/4, $0x59f111f1
DATA k256<>+0x18(SB)/4, $0x923f82a4
DATA k256<>+0x1c(SB)/4, $0xab1c5ed5
DATA k256<>+0x20(SB)/4, $0xd807aa98
DATA k256<>+0x24(SB)/4, $0x12835b01
DATA k256<>+0x28(SB)/4, $0x243185be
DATA k256<>+0x2c(SB)/4, $0x550c7dc3
DATA k256<>+0x30(SB)/4, $0x72be5d74
DATA k256<>+0x34(SB)/4, $0x80deb1fe
DATA k256<>+0x38(SB)/4, $0x9bdc06a7
DATA k256<>+0x3c(SB)/4, $0xc19bf174
DATA k256<>+0x40(SB)/4, $0xe49b69c1
DATA k256<>+0x44(SB)/4, $0xefbe4786
DATA k256<>+0x48(SB)/4, $0x0fc19dc6
DATA k256<>+0x4c(SB)/4, $0x240ca1cc
DATA k256<>+0x50(SB)/4, $0x2de92c6f
DATA k256<>+0x54(SB)/4, $0x4a7484aa
DATA k256<>+0x58(SB)/4, $0x5cb0a9dc
DATA k256<>+0x5c(SB)/4, $0x76f988da
DATA k256<>+0x60(SB)/4, $0x983e5152
DATA k256<>+0x64(SB)/4, $0xa831c66d
DATA k256<>+0x68(SB)/4, $0xb00327c8
DATA k256<>+0x6c(SB)/4, $0xbf597fc7
DATA k256<>+0x70(SB)/4, $0xc6e00bf3
DATA k256<>+0x74(SB)/4, $0xd5a79147
DATA k256<>+0x78(SB)/4, $0x06ca6351
DATA k256<>+0x7c(SB)/4, $0x14292967
DATA k256<>+0x80(SB)/4, $0x27b70a85
DATA k256<>+0x84(SB)/4, $0x2e1b2138
DATA k256<>+0x88(SB)/4, $0x4d2c6dfc
DATA k256<>+0x8c(SB)/4, $0x53380d13
DATA k256<>+0x90(SB)/4, $0x650a7354
DATA k256<>+0x94(SB)/4, $0x766a0abb
DATA k256<>+0x98(SB)/4, $0x81c2c92e
DATA k256<>+0x9c(SB)/4, $0x92722c85
DATA k256<>+0xa0(SB)/4, $0xa2bfe8a1
DATA k256<>+0xa4(SB)/4, $0xa81a664b
DATA k256<>+0xa8(SB)/4, $0xc24b8b70
DATA k256<>+0xac(SB)/4, $0xc76c51a3
DATA k256<>+0xb0(SB)/4, $0xd192e819
DATA k256<>+0xb4(SB)/4, $0xd6990624
DATA k256<>+0xb8(SB)/4, $0xf40e3585
DATA k256<>+0xbc(SB)/4, $0x106aa070
DATA k256<>+0xc0(SB)/4, $0x19a4c116
DATA k256<>+0xc4(SB)/4, $0x1e376c08
DATA k256<>+0xc8(SB)/4, $0x2748774c
DATA k256<>+0xcc(SB)/4, $0x34b0bcb5
DATA k256<>+0xd0(SB)/4, $0x391c0cb3
DATA k256<>+0xd4(SB)/4, $0x4ed8aa4a
DATA k256<>+0xd8(SB)/4, $0x5b9cca4f
DATA k256<>+0xdc(SB)/4, $0x682e6ff3
DATA k256<>+0xe0(SB)/4, $0x748f82ee
DATA k256<>+0xe4(SB)/4, $0x78a5636f
DATA k256<>+0xe8(SB)/4, $0x84c87814
DATA k256<>+0xec(SB)/4, $0x8cc70208
DATA k256<>+0xf0(SB)/4, $0x90befffa
DATA k256<>+0xf4(SB)/4, $0xa4506ceb
DATA k256<>+0xf8(SB)/4, $0xbef9a3f7
DATA k256<>+0xfc(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256

// The VPSHUFB control that reverses the bytes of every 32-bit word.
DATA bswap<>+0x00(SB)/8, $0x0405060700010203
DATA bswap<>+0x08(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap<>+0x10(SB)/8, $0x0405060700010203
DATA bswap<>+0x18(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap<>+0x20(SB)/8, $0x0405060700010203
DATA bswap<>+0x28(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap<>+0x30(SB)/8, $0x0405060700010203
DATA bswap<>+0x38(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap<>(SB), RODATA|NOPTR, $64

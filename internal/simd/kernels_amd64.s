//go:build amd64

#include "textflag.h"

// AVX2 float64 kernels. Every kernel is bit-identical to its scalar
// reference in scalar.go. The two GEMM tiles accumulate every element as
// one VFMADD231PD chain in k order (math.FMA in the reference); every
// other kernel uses separate VMULPD/VADDPD (a*b + c in the reference), and
// reductions keep exactly the reference's partial-sum grouping, folded in
// the same left-to-right order. Tails run in VEX scalar instructions so
// the upper ymm state stays clean until the single VZEROUPPER before RET.
//
// Lengths: the bodies trust their element counts. The Go wrappers in
// cpu_amd64.go apply the scalar references' length checks first.
//
// Aliasing: the elementwise kernels load every operand group before
// storing the result group, so exact aliasing (z == x, z == y) matches
// the scalar loops; partially overlapping slices are unsupported (as in
// the scalar reference, whose 4-wide groups would also diverge).

// absMask clears the float64 sign bit.
DATA absMask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absMask<>(SB), RODATA, $8

// func dotAVX2(x, y []float64) float64
//
// Eight partial sums in two 4-lane accumulators, matching dotScalar's
// s0..s7; folded ((((((s0+s1)+s2)+s3)+s4)+s5)+s6)+s7, then a scalar tail.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VXORPD Y0, Y0, Y0 // lanes s0..s3
	VXORPD Y1, Y1, Y1 // lanes s4..s7
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $8, BX

dotloop:
	CMPQ AX, BX
	JGT  dotreduce
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMULPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 32(SI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y1, Y1
	ADDQ    $8, AX
	JMP     dotloop

dotreduce:
	// Fold Y0 = {s0, s1, s2, s3}.
	VUNPCKHPD    X0, X0, X2 // {s1, s1}
	VEXTRACTF128 $1, Y0, X3 // {s2, s3}
	VADDSD       X2, X0, X0 // s0+s1
	VADDSD       X3, X0, X0 // +s2
	VUNPCKHPD    X3, X3, X3 // {s3, s3}
	VADDSD       X3, X0, X0 // +s3
	// Fold Y1 = {s4, s5, s6, s7}.
	VADDSD       X1, X0, X0 // +s4
	VUNPCKHPD    X1, X1, X2 // {s5, s5}
	VADDSD       X2, X0, X0 // +s5
	VEXTRACTF128 $1, Y1, X3 // {s6, s7}
	VADDSD       X3, X0, X0 // +s6
	VUNPCKHPD    X3, X3, X3 // {s7, s7}
	VADDSD       X3, X0, X0 // +s7

dottail:
	CMPQ AX, CX
	JGE  dotdone
	VMOVSD (SI)(AX*8), X2
	VMULSD (DI)(AX*8), X2, X2
	VADDSD X2, X0, X0
	INCQ   AX
	JMP    dottail

dotdone:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y []float64)
//
// y[i] += alpha*x[i]: elementwise, one rounding per multiply and add,
// identical to the scalar loop for any grouping.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $8, BX

axpyloop:
	CMPQ AX, BX
	JGT  axpytail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     axpyloop

axpytail:
	CMPQ AX, CX
	JGE  axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func scaleAVX2(alpha float64, x []float64)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $8, BX

scaleloop:
	CMPQ AX, BX
	JGT  scaletail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y2, 32(SI)(AX*8)
	ADDQ    $8, AX
	JMP     scaleloop

scaletail:
	CMPQ AX, CX
	JGE  scaledone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (SI)(AX*8)
	INCQ   AX
	JMP    scaletail

scaledone:
	VZEROUPPER
	RET

// func hadAVX2(x, y, z []float64)
//
// z[i] = x[i]*y[i] over len(z) elements; both loads precede the store so
// exact aliasing matches the scalar loop.
TEXT ·hadAVX2(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ z_base+48(FP), DX
	MOVQ z_len+56(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $8, BX

hadloop:
	CMPQ AX, BX
	JGT  hadtail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  (DI)(AX*8), Y1, Y1
	VMULPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DX)(AX*8)
	VMOVUPD Y2, 32(DX)(AX*8)
	ADDQ    $8, AX
	JMP     hadloop

hadtail:
	CMPQ AX, CX
	JGE  haddone
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DX)(AX*8)
	INCQ   AX
	JMP    hadtail

haddone:
	VZEROUPPER
	RET

// func hadAccAVX2(x, y, z []float64)
//
// z[i] += x[i]*y[i] over len(z) elements.
TEXT ·hadAccAVX2(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ z_base+48(FP), DX
	MOVQ z_len+56(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $8, BX

hacloop:
	CMPQ AX, BX
	JGT  hactail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  (DI)(AX*8), Y1, Y1
	VMULPD  32(DI)(AX*8), Y2, Y2
	VADDPD  (DX)(AX*8), Y1, Y1
	VADDPD  32(DX)(AX*8), Y2, Y2
	VMOVUPD Y1, (DX)(AX*8)
	VMOVUPD Y2, 32(DX)(AX*8)
	ADDQ    $8, AX
	JMP     hacloop

hactail:
	CMPQ AX, CX
	JGE  hacdone
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VADDSD (DX)(AX*8), X1, X1
	VMOVSD X1, (DX)(AX*8)
	INCQ   AX
	JMP    hactail

hacdone:
	VZEROUPPER
	RET

// func addAVX2(x, y []float64)
//
// y[i] += x[i] over len(x) elements — the reduction inner loop.
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $8, BX

addloop:
	CMPQ AX, BX
	JGT  addtail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     addloop

addtail:
	CMPQ AX, CX
	JGE  adddone
	VMOVSD (SI)(AX*8), X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    addtail

adddone:
	VZEROUPPER
	RET

// func sumAbsAVX2(x []float64) float64
//
// Four partial sums in one accumulator, matching sumAbsScalar's s0..s3;
// folded ((s0+s1)+s2)+s3, then a scalar tail.
TEXT ·sumAbsAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VBROADCASTSD absMask<>(SB), Y3
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $4, BX

sumloop:
	CMPQ AX, BX
	JGT  sumreduce
	VMOVUPD (SI)(AX*8), Y1
	VANDPD  Y3, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	JMP     sumloop

sumreduce:
	VUNPCKHPD    X0, X0, X2 // {s1, s1}
	VEXTRACTF128 $1, Y0, X1 // {s2, s3}
	VADDSD       X2, X0, X0 // s0+s1
	VADDSD       X1, X0, X0 // +s2
	VUNPCKHPD    X1, X1, X1 // {s3, s3}
	VADDSD       X1, X0, X0 // +s3

sumtail:
	CMPQ AX, CX
	JGE  sumdone
	VMOVSD (SI)(AX*8), X1
	VANDPD X3, X1, X1
	VADDSD X1, X0, X0
	INCQ   AX
	JMP    sumtail

sumdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func gemm4x4AVX2(kc int, ap, bp []float64, acc *[16]float64)
//
// The 4×4 GEMM micro-kernel on one packed panel: accumulator row r lives
// in Y(r), lane j holding c_rj. Per k step each row does one broadcast
// and one FMA — per lane exactly the scalar kernel's
// c_rj = math.FMA(a_r, b_j, c_rj) in the same k order. Four chains cannot
// cover the FMA latency, which is why whole 12-row groups go through
// gemm12x4AVX2 and only leftover panels come here.
TEXT ·gemm4x4AVX2(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ acc+56(FP), DX
	SHLQ $5, CX // 32 bytes per k step in both panels
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	CMPQ AX, CX
	JGE  gemmdone

gemmloop:
	VMOVUPD      (DI)(AX*1), Y4 // {b0, b1, b2, b3}
	VBROADCASTSD (SI)(AX*1), Y5
	VBROADCASTSD 8(SI)(AX*1), Y6
	VBROADCASTSD 16(SI)(AX*1), Y7
	VBROADCASTSD 24(SI)(AX*1), Y8
	VFMADD231PD  Y4, Y5, Y0 // row 0 += a0 * b
	VFMADD231PD  Y4, Y6, Y1
	VFMADD231PD  Y4, Y7, Y2
	VFMADD231PD  Y4, Y8, Y3
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          gemmloop

gemmdone:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func gemm12x4AVX2(kc int, ap, bp []float64, acc *[48]float64)
//
// The 12×4 GEMM micro-kernel on three consecutive packed 4-row panels.
// Lanes run along M: Y(3c+q) holds rows 4q..4q+3 of column c. Per k step
// three A loads (one column of each panel), four B broadcasts and twelve
// independent FMA chains, enough to keep two FMA units busy; Y12–Y14 hold
// the A columns and Y15 the current broadcast, so all sixteen ymm
// registers are in use. Every lane is the scalar kernel's
// c = math.FMA(a, b, c) in k order. The tile is stored column-major:
// column c at acc[c*12:], its panel q at byte offset 96c + 32q.
TEXT ·gemm12x4AVX2(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ acc+56(FP), DX
	SHLQ $5, CX          // 32 bytes per k step in every panel
	LEAQ (SI)(CX*1), R8  // A panel 1
	LEAQ (R8)(CX*1), R9  // A panel 2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ AX, AX
	CMPQ AX, CX
	JGE  g12done

g12loop:
	VMOVUPD      (SI)(AX*1), Y12
	VMOVUPD      (R8)(AX*1), Y13
	VMOVUPD      (R9)(AX*1), Y14
	VBROADCASTSD (DI)(AX*1), Y15
	VFMADD231PD  Y15, Y12, Y0
	VFMADD231PD  Y15, Y13, Y1
	VFMADD231PD  Y15, Y14, Y2
	VBROADCASTSD 8(DI)(AX*1), Y15
	VFMADD231PD  Y15, Y12, Y3
	VFMADD231PD  Y15, Y13, Y4
	VFMADD231PD  Y15, Y14, Y5
	VBROADCASTSD 16(DI)(AX*1), Y15
	VFMADD231PD  Y15, Y12, Y6
	VFMADD231PD  Y15, Y13, Y7
	VFMADD231PD  Y15, Y14, Y8
	VBROADCASTSD 24(DI)(AX*1), Y15
	VFMADD231PD  Y15, Y12, Y9
	VFMADD231PD  Y15, Y13, Y10
	VFMADD231PD  Y15, Y14, Y11
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          g12loop

g12done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VMOVUPD Y8, 256(DX)
	VMOVUPD Y9, 288(DX)
	VMOVUPD Y10, 320(DX)
	VMOVUPD Y11, 352(DX)
	VZEROUPPER
	RET

// func hadExpandAVX2(row, kl, out []float64)
//
// out(l, :) = row ∗ kl(l, :) over flat row-major kl/out with
// len(kl) = rows·len(row): the row loop lives inside the kernel so the
// per-row dispatch overhead of calling Had once per row disappears.
TEXT ·hadExpandAVX2(SB), NOSPLIT, $0-72
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX  // c
	MOVQ kl_base+24(FP), DI
	MOVQ kl_len+32(FP), R8  // rows*c
	MOVQ out_base+48(FP), DX
	TESTQ CX, CX
	JE    hedone
	MOVQ CX, BX
	SUBQ $4, BX             // inner 4-wide bound
	MOVQ R8, R11
	SUBQ CX, R11            // last full-row base (matches the scalar's base+c <= len(kl))
	XORQ R9, R9             // flat base of the current row

heouter:
	CMPQ R9, R11
	JGT  hedone
	XORQ AX, AX             // index within the row

heinner:
	CMPQ AX, BX
	JGT  hetail
	LEAQ    (R9)(AX*1), R10
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(R10*8), Y1, Y1
	VMOVUPD Y1, (DX)(R10*8)
	ADDQ    $4, AX
	JMP     heinner

hetail:
	CMPQ AX, CX
	JGE  herow
	LEAQ   (R9)(AX*1), R10
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(R10*8), X1, X1
	VMOVSD X1, (DX)(R10*8)
	INCQ   AX
	JMP    hetail

herow:
	ADDQ CX, R9
	JMP  heouter

hedone:
	VZEROUPPER
	RET

//go:build amd64

#include "textflag.h"

// AVX2 float64 kernels. Every kernel is bit-identical to its scalar
// reference in scalar.go. The GEMM tiles accumulate every element as
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

// func hadAxpyAVX2(alpha float64, x, y, z []float64)
//
// z[i] += alpha*(x[i]*y[i]) over len(z) elements: three roundings in
// hadAxpyScalar's order (the product, its alpha multiple, the add). Every
// operand group is loaded before the store, so exact aliasing of z with x
// or y matches the scalar loop.
TEXT ·hadAxpyAVX2(SB), NOSPLIT, $0-80
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ z_base+56(FP), DX
	MOVQ z_len+64(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	SUBQ $8, BX

hadaxpyloop:
	CMPQ AX, BX
	JGT  hadaxpytail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  (DI)(AX*8), Y1, Y1
	VMULPD  32(DI)(AX*8), Y2, Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DX)(AX*8), Y1, Y1
	VADDPD  32(DX)(AX*8), Y2, Y2
	VMOVUPD Y1, (DX)(AX*8)
	VMOVUPD Y2, 32(DX)(AX*8)
	ADDQ    $8, AX
	JMP     hadaxpyloop

hadaxpytail:
	CMPQ AX, CX
	JGE  hadaxpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VMULSD X0, X1, X1
	VADDSD (DX)(AX*8), X1, X1
	VMOVSD X1, (DX)(AX*8)
	INCQ   AX
	JMP    hadaxpytail

hadaxpydone:
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

// func gemm12x4ColAAVX2(kc int, a []float64, lda int, ap, bp []float64, acc *[48]float64)
//
// gemm12x4AVX2 reading a column-major A in place: k step q loads the 12
// contiguous rows of column q at a[q*lda:] instead of a packed column,
// stores the three loads into the three packed panels at ap (R8, R9,
// R10), then runs the same four broadcasts and twelve FMA chains into the
// same column-major tile. The caller's other B panels run gemm12x4AVX2 on
// that copy, so A is read from memory once per KC block.
//
// Two prefetches per column hide the column stride, which defeats the
// hardware prefetchers. PREFETCHT1 brings the next 12 rows (bytes 96–191:
// the lines holding bytes 128 and 184 are the ones the current rows'
// loads have not already brought in) into L2 for the next group of the
// blocked GEMM. PREFETCHT0 brings the current rows 16 columns ahead
// (R12 bytes on) into L1: the lines holding bytes 0, 64 and 88, which are
// all the lines 96 bytes at any 8-byte offset can touch. A prefetch never
// faults, so the last group of a slice or mapping may run here too.
TEXT ·gemm12x4ColAAVX2(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ lda+32(FP), BX
	MOVQ ap_base+40(FP), R8
	MOVQ bp_base+64(FP), DI
	MOVQ acc+88(FP), DX
	SHLQ $3, BX          // column stride in bytes
	MOVQ BX, R12
	SHLQ $4, R12         // 16 columns ahead
	SHLQ $5, CX          // 32 bytes per k step in every panel
	LEAQ (R8)(CX*1), R9  // packed panel 1
	LEAQ (R9)(CX*1), R10 // packed panel 2
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
	JGE  g12cdone

g12cloop:
	PREFETCHT1   128(SI)
	PREFETCHT1   184(SI)
	PREFETCHT0   (SI)(R12*1)
	PREFETCHT0   64(SI)(R12*1)
	PREFETCHT0   88(SI)(R12*1)
	VMOVUPD      (SI), Y12
	VMOVUPD      32(SI), Y13
	VMOVUPD      64(SI), Y14
	VMOVUPD      Y12, (R8)(AX*1)
	VMOVUPD      Y13, (R9)(AX*1)
	VMOVUPD      Y14, (R10)(AX*1)
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
	ADDQ         BX, SI
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          g12cloop

g12cdone:
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

// func gemm12x4RowAAVX2(kc int, a []float64, lda int, bp []float64, acc *[48]float64)
//
// The in-place 12×4 tile over a row-major A, lanes along N: Y(r) holds
// row r's four columns. Per k step one load of B's row q and, for each of
// the 12 row streams, one broadcast of a[r*lda+q] and one FMA — per lane
// the scalar kernel's c = math.FMA(a, b, c) in k order. Rows are
// addressed from four bases three rows apart (SI, R8, R9, R10) plus 0,
// 1 or 2 times the row stride in BX. Thirteen loads feed twelve FMAs, so
// the loop runs two k steps per pass to keep the pointer updates off the
// critical front end; an odd kc ends with one step. The tile is stored
// row-major, row r at byte offset 32r.
TEXT ·gemm12x4RowAAVX2(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), DI
	MOVQ acc+64(FP), DX
	SHLQ $3, BX          // row stride in bytes
	LEAQ (SI)(BX*2), R8
	ADDQ BX, R8          // row 3
	LEAQ (R8)(BX*2), R9
	ADDQ BX, R9          // row 6
	LEAQ (R9)(BX*2), R10
	ADDQ BX, R10         // row 9
	SHLQ $5, CX
	LEAQ (DI)(CX*1), R11 // end of the B panel
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
	LEAQ -32(R11), R12   // pairs of k steps run while DI < R12
	CMPQ DI, R12
	JGE  g12rtail

g12rloop:
	VMOVUPD      (DI), Y12
	VBROADCASTSD (SI), Y13
	VFMADD231PD  Y12, Y13, Y0
	VBROADCASTSD (SI)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y1
	VBROADCASTSD (SI)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y2
	VBROADCASTSD (R8), Y13
	VFMADD231PD  Y12, Y13, Y3
	VBROADCASTSD (R8)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y4
	VBROADCASTSD (R8)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y5
	VBROADCASTSD (R9), Y13
	VFMADD231PD  Y12, Y13, Y6
	VBROADCASTSD (R9)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y7
	VBROADCASTSD (R9)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y8
	VBROADCASTSD (R10), Y13
	VFMADD231PD  Y12, Y13, Y9
	VBROADCASTSD (R10)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y10
	VBROADCASTSD (R10)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y11
	VMOVUPD      32(DI), Y12
	VBROADCASTSD 8(SI), Y13
	VFMADD231PD  Y12, Y13, Y0
	VBROADCASTSD 8(SI)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y1
	VBROADCASTSD 8(SI)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y2
	VBROADCASTSD 8(R8), Y13
	VFMADD231PD  Y12, Y13, Y3
	VBROADCASTSD 8(R8)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y4
	VBROADCASTSD 8(R8)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y5
	VBROADCASTSD 8(R9), Y13
	VFMADD231PD  Y12, Y13, Y6
	VBROADCASTSD 8(R9)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y7
	VBROADCASTSD 8(R9)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y8
	VBROADCASTSD 8(R10), Y13
	VFMADD231PD  Y12, Y13, Y9
	VBROADCASTSD 8(R10)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y10
	VBROADCASTSD 8(R10)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y11
	ADDQ         $16, SI
	ADDQ         $16, R8
	ADDQ         $16, R9
	ADDQ         $16, R10
	ADDQ         $64, DI
	CMPQ         DI, R12
	JLT          g12rloop

g12rtail:
	CMPQ DI, R11
	JGE  g12rdone
	VMOVUPD      (DI), Y12
	VBROADCASTSD (SI), Y13
	VFMADD231PD  Y12, Y13, Y0
	VBROADCASTSD (SI)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y1
	VBROADCASTSD (SI)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y2
	VBROADCASTSD (R8), Y13
	VFMADD231PD  Y12, Y13, Y3
	VBROADCASTSD (R8)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y4
	VBROADCASTSD (R8)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y5
	VBROADCASTSD (R9), Y13
	VFMADD231PD  Y12, Y13, Y6
	VBROADCASTSD (R9)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y7
	VBROADCASTSD (R9)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y8
	VBROADCASTSD (R10), Y13
	VFMADD231PD  Y12, Y13, Y9
	VBROADCASTSD (R10)(BX*1), Y14
	VFMADD231PD  Y12, Y14, Y10
	VBROADCASTSD (R10)(BX*2), Y15
	VFMADD231PD  Y12, Y15, Y11

g12rdone:
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

package simd

import "math"

// The scalar kernels below are the package's reference implementations:
// portable Go, unrolled so the compiler keeps partial results in registers,
// with explicit reslicing so the inner loops run without bounds checks.
// The vector kernels must match them bit for bit — see the package comment
// for the exact contract (math.FMA chains in the GEMM tiles, mul-then-add
// everywhere else, partial-sum grouping).

// dotScalar keeps eight independent partial sums (matching the two 4-lane
// vector accumulators of the AVX2 kernel), folds them left to right, then
// drains the tail one element at a time.
//
//mttkrp:noalloc
func dotScalar(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
		s4 += x[i+4] * y[i+4]
		s5 += x[i+5] * y[i+5]
		s6 += x[i+6] * y[i+6]
		s7 += x[i+7] * y[i+7]
	}
	s := ((((((s0 + s1) + s2) + s3) + s4) + s5) + s6) + s7
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// axpyScalar computes y += alpha·x. Elementwise, so any vector grouping is
// bit-identical as long as each element is alpha·x[i] rounded once and
// added once.
//
//mttkrp:noalloc
func axpyScalar(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// scaleScalar computes x *= alpha.
//
//mttkrp:noalloc
func scaleScalar(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// hadScalar computes z = x ∗ y. Safe under exact aliasing of z with x or y.
//
//mttkrp:noalloc
func hadScalar(x, y, z []float64) {
	n := len(z)
	x, y = x[:n], y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		z[i] = x[i] * y[i]
		z[i+1] = x[i+1] * y[i+1]
		z[i+2] = x[i+2] * y[i+2]
		z[i+3] = x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		z[i] = x[i] * y[i]
	}
}

// hadAxpyScalar computes z += alpha·(x ∗ y): per element the product
// x[i]·y[i] rounded, its alpha multiple rounded, then one add — the
// roundings of hadScalar into a buffer followed by axpyScalar. Safe under
// exact aliasing of z with x or y.
//
//mttkrp:noalloc
func hadAxpyScalar(alpha float64, x, y, z []float64) {
	n := len(z)
	x, y = x[:n], y[:n]
	for i := range z {
		z[i] += alpha * (x[i] * y[i])
	}
}

// addScalar computes y += x — the parallel-reduction inner loop.
//
//mttkrp:noalloc
func addScalar(x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += v
	}
}

// gemm4x4Strided computes a 4×4 tile over a 4-row block of A held at any
// strides, element (r, q) at a[r*rs+q*cs]: sixteen accumulators, one
// math.FMA per (row, column) pair per k step, in k order, stored
// row-major into t. Every scalar GEMM tile is built from it, so an
// element's chain is the same whichever tile or layout computes it. The
// caller has checked a's length.
//
//mttkrp:noalloc
func gemm4x4Strided(kc int, a []float64, rs, cs int, bp []float64, t *[16]float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	bp = bp[: kc*4 : kc*4]
	for p := 0; p < kc; p++ {
		i := p * cs
		a0 := a[i]
		a1 := a[i+rs]
		a2 := a[i+2*rs]
		a3 := a[i+3*rs]
		b := bp[p*4 : p*4+4 : p*4+4]
		c00 = math.FMA(a0, b[0], c00)
		c01 = math.FMA(a0, b[1], c01)
		c02 = math.FMA(a0, b[2], c02)
		c03 = math.FMA(a0, b[3], c03)
		c10 = math.FMA(a1, b[0], c10)
		c11 = math.FMA(a1, b[1], c11)
		c12 = math.FMA(a1, b[2], c12)
		c13 = math.FMA(a1, b[3], c13)
		c20 = math.FMA(a2, b[0], c20)
		c21 = math.FMA(a2, b[1], c21)
		c22 = math.FMA(a2, b[2], c22)
		c23 = math.FMA(a2, b[3], c23)
		c30 = math.FMA(a3, b[0], c30)
		c31 = math.FMA(a3, b[1], c31)
		c32 = math.FMA(a3, b[2], c32)
		c33 = math.FMA(a3, b[3], c33)
	}
	t[0], t[1], t[2], t[3] = c00, c01, c02, c03
	t[4], t[5], t[6], t[7] = c10, c11, c12, c13
	t[8], t[9], t[10], t[11] = c20, c21, c22, c23
	t[12], t[13], t[14], t[15] = c30, c31, c32, c33
}

// gemm4x4Scalar is the reference 4×4 micro-kernel on one packed panel
// (A(r, q) at ap[q*4+r]): gemm4x4Strided above. The AVX2 kernel holds each
// row's four accumulators in one register; per lane the operation
// sequence is identical.
//
//mttkrp:noalloc
func gemm4x4Scalar(kc int, ap, bp []float64, acc *[16]float64) {
	gemm4x4Strided(kc, ap[:kc*4:kc*4], 1, 4, bp, acc)
}

// gemm12x4Scalar is the reference 12×4 micro-kernel. An element's FMA
// chain depends only on its own row and column, so the reference runs
// gemm4x4Scalar on each of the three panels and transposes the results
// into the column-major tile the AVX2 kernel stores.
//
//mttkrp:noalloc
func gemm12x4Scalar(kc int, ap, bp []float64, acc *[48]float64) {
	ap = ap[: kc*12 : kc*12]
	bp = bp[: kc*4 : kc*4]
	var t [16]float64
	for q := 0; q < 3; q++ {
		gemm4x4Scalar(kc, ap[q*kc*4:], bp, &t)
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				acc[c*12+q*4+r] = t[r*4+c]
			}
		}
	}
}

// colALen is the number of elements Gemm12x4ColA reads from a: kc
// columns lda apart, 12 contiguous rows each. rowALen is the same for
// Gemm12x4RowA: 12 rows lda apart, kc contiguous columns each. Both
// references and the vector wrappers reslice a to this length, so a
// short operand panics alike under every implementation.
//
//mttkrp:noalloc
func colALen(kc, lda int) int {
	if lda < 0 {
		panic("simd: negative lda")
	}
	if kc == 0 {
		return 0
	}
	return (kc-1)*lda + 12
}

//mttkrp:noalloc
func rowALen(kc, lda int) int {
	if lda < 0 {
		panic("simd: negative lda")
	}
	if kc == 0 {
		return 0
	}
	return 11*lda + kc
}

// gemm12x4ColAScalar is the reference for the in-place 12×4 tile over a
// column-major A: row r of column q is a[q*lda+r]. It copies the 12 rows
// of every column into ap's three-panel layout, then runs gemm12x4Scalar
// on that copy, so each element is the FMA chain the packed tile computes
// for it, in the same column-major tile (acc[c*12+r]).
//
//mttkrp:noalloc
func gemm12x4ColAScalar(kc int, a []float64, lda int, ap, bp []float64, acc *[48]float64) {
	a = a[:colALen(kc, lda)]
	ap = ap[: kc*12 : kc*12]
	bp = bp[: kc*4 : kc*4]
	for q := 0; q < kc; q++ {
		col := a[q*lda : q*lda+12 : q*lda+12]
		for p := 0; p < 3; p++ {
			copy(ap[p*4*kc+q*4:p*4*kc+q*4+4], col[p*4:p*4+4])
		}
	}
	gemm12x4Scalar(kc, ap, bp, acc)
}

// gemm12x4RowAScalar is the reference for the in-place 12×4 tile over a
// row-major A: row r of column q is a[r*lda+q]. The tile is row-major
// (acc[r*4+c]), the layout of a tile whose lanes run along N; each
// element is the same FMA chain as in the packed tiles.
//
//mttkrp:noalloc
func gemm12x4RowAScalar(kc int, a []float64, lda int, bp []float64, acc *[48]float64) {
	a = a[:rowALen(kc, lda)]
	bp = bp[: kc*4 : kc*4]
	if kc == 0 {
		*acc = [48]float64{}
		return
	}
	for q := 0; q < 3; q++ {
		gemm4x4Strided(kc, a[q*4*lda:], lda, 1, bp, (*[16]float64)(acc[q*16:]))
	}
}

// hadExpandScalar computes out(l, :) = row ∗ kl(l, :) over flat row-major
// buffers: one Hadamard product of row against every row of kl.
//
//mttkrp:noalloc
func hadExpandScalar(row, kl, out []float64) {
	c := len(row)
	if c == 0 {
		return
	}
	out = out[:len(kl)]
	for base := 0; base+c <= len(kl); base += c {
		hadScalar(row, kl[base:base+c], out[base:base+c])
	}
}

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

// hadAccScalar computes z += x ∗ y. Safe under exact aliasing of z with x
// or y.
//
//mttkrp:noalloc
func hadAccScalar(x, y, z []float64) {
	n := len(z)
	x, y = x[:n], y[:n]
	for i := range z {
		z[i] += x[i] * y[i]
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

// sumAbsScalar keeps four independent partial sums (one vector register's
// worth of lanes), folds them left to right, then drains the tail.
//
//mttkrp:noalloc
func sumAbsScalar(x []float64) float64 {
	n := len(x)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += math.Abs(x[i])
		s1 += math.Abs(x[i+1])
		s2 += math.Abs(x[i+2])
		s3 += math.Abs(x[i+3])
	}
	s := ((s0 + s1) + s2) + s3
	for ; i < n; i++ {
		s += math.Abs(x[i])
	}
	return s
}

// gemm4x4Scalar is the reference 4×4 micro-kernel: sixteen accumulators,
// one math.FMA per (row, column) pair per k step, in k order. The AVX2
// kernel holds each row's four accumulators in one register; per lane the
// operation sequence is identical.
//
//mttkrp:noalloc
func gemm4x4Scalar(kc int, ap, bp []float64, acc *[16]float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	ap = ap[: kc*4 : kc*4]
	bp = bp[: kc*4 : kc*4]
	for p := 0; p < kc; p++ {
		a0 := ap[p*4]
		a1 := ap[p*4+1]
		a2 := ap[p*4+2]
		a3 := ap[p*4+3]
		b0 := bp[p*4]
		b1 := bp[p*4+1]
		b2 := bp[p*4+2]
		b3 := bp[p*4+3]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		c20 = math.FMA(a2, b0, c20)
		c21 = math.FMA(a2, b1, c21)
		c22 = math.FMA(a2, b2, c22)
		c23 = math.FMA(a2, b3, c23)
		c30 = math.FMA(a3, b0, c30)
		c31 = math.FMA(a3, b1, c31)
		c32 = math.FMA(a3, b2, c32)
		c33 = math.FMA(a3, b3, c33)
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
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

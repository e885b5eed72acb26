package blas

import (
	"math"

	"repro/internal/mat"
	"repro/internal/simd"
)

// The level-1 kernels validate shapes and resolve strides here, then hand
// every unit-stride inner loop to internal/simd, which dispatches between
// the scalar reference and the host's vectorized implementation (see that
// package for the bit-identity contract). Strided fallbacks stay local.

// Dot returns xᵀy for equal-length vectors.
func Dot(x, y mat.Vec) float64 {
	if x.N != y.N {
		panic("blas: dot length mismatch")
	}
	if x.Inc == 1 && y.Inc == 1 {
		return simd.Dot(x.Data[:x.N], y.Data[:x.N])
	}
	s := 0.0
	for i := 0; i < x.N; i++ {
		s += x.At(i) * y.At(i)
	}
	return s
}

// Scal computes x *= alpha.
func Scal(alpha float64, x mat.Vec) {
	if x.Inc == 1 {
		simd.Scale(alpha, x.Data[:x.N])
		return
	}
	for i := 0; i < x.N; i++ {
		x.Set(i, alpha*x.At(i))
	}
}

// Nrm2 returns the Euclidean norm of x, scaled to avoid overflow.
func Nrm2(x mat.Vec) float64 {
	if x.Inc == 1 {
		return nrm2Unit(x.Data[:x.N])
	}
	scale := 0.0
	ssq := 1.0
	for i := 0; i < x.N; i++ {
		v := x.At(i)
		if v == 0 {
			continue
		}
		scale, ssq = nrm2Step(scale, ssq, v)
	}
	return scale * math.Sqrt(ssq)
}

// nrm2Unit is the unit-stride norm: the same overflow-safe scaled update
// in element order (bit-identical to the strided loop), minus the
// per-element stride arithmetic. The rescaling recurrence is sequential,
// so it stays scalar.
func nrm2Unit(xs []float64) float64 {
	scale := 0.0
	ssq := 1.0
	for _, v := range xs {
		if v == 0 {
			continue
		}
		scale, ssq = nrm2Step(scale, ssq, v)
	}
	return scale * math.Sqrt(ssq)
}

// nrm2Step folds one element into the (scale, ssq) state of the scaled
// sum of squares.
func nrm2Step(scale, ssq, v float64) (float64, float64) {
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := a / scale
	return scale, ssq + r*r
}

// IAmax returns the index of the element of largest magnitude, or -1 for an
// empty vector. Ties keep the earliest index, so the scan stays scalar and
// sequential; the unit-stride path only drops the per-element stride
// arithmetic.
func IAmax(x mat.Vec) int {
	if x.N == 0 {
		return -1
	}
	if x.Inc == 1 {
		xs := x.Data[:x.N]
		best, idx := math.Abs(xs[0]), 0
		for i := 1; i < len(xs); i++ {
			if a := math.Abs(xs[i]); a > best {
				best, idx = a, i
			}
		}
		return idx
	}
	best, idx := math.Abs(x.At(0)), 0
	for i := 1; i < x.N; i++ {
		if a := math.Abs(x.At(i)); a > best {
			best, idx = a, i
		}
	}
	return idx
}

// CopyVec copies x into y.
func CopyVec(x, y mat.Vec) {
	if x.N != y.N {
		panic("blas: copy length mismatch")
	}
	if x.Inc == 1 && y.Inc == 1 {
		copy(y.Data[:y.N], x.Data[:x.N])
		return
	}
	for i := 0; i < x.N; i++ {
		y.Set(i, x.At(i))
	}
}

// Had computes z = x ∗ y, the elementwise (Hadamard) product, for
// unit-stride slices. It is the inner kernel of the row-wise Khatri-Rao
// product (Algorithm 1), so it is kept allocation-free and dispatched to
// the vectorized implementation. z may alias x or y exactly (krp.Row
// multiplies in place); partial overlap is not supported.
//
//mttkrp:noalloc
func Had(x, y, z []float64) {
	if len(x) != len(y) || len(x) != len(z) {
		panic("blas: hadamard length mismatch")
	}
	simd.Had(x, y, z)
}

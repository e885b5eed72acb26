package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// Permute returns a new tensor Y with Y(i_{perm[0]}, …, i_{perm[N-1]}) =
// X(i_0, …, i_{N-1}): mode k of the result is mode perm[k] of the input.
// perm must be a permutation of 0..N-1. This is the general entry
// reordering the MTTKRP algorithms avoid; it is provided for tests, for
// data preparation, and as the explicit cost model of the baseline. Work
// is split across t workers of p (a nil p selects the default pool).
func (d *Dense) Permute(p parallel.Executor, t int, perm []int) *Dense {
	n := len(d.dims)
	if len(perm) != n {
		panic(fmt.Sprintf("tensor: permutation has %d entries for order %d", len(perm), n))
	}
	seen := make([]bool, n)
	for _, m := range perm {
		if m < 0 || m >= n || seen[m] {
			panic(fmt.Sprintf("tensor: invalid permutation %v", perm))
		}
		seen[m] = true
	}
	outDims := make([]int, n)
	for k, m := range perm {
		outDims[k] = d.dims[m]
	}
	out := New(outDims...)
	// Destination stride of source mode p: out mode k has stride
	// out.strides[k] and reads source mode perm[k].
	dstStride := make([]int, n)
	for k, m := range perm {
		dstStride[m] = out.strides[k]
	}
	idx := make([]int, n)
	size := len(d.data)
	parallel.OrDefault(p).For(t, size, func(_, lo, hi int) {
		myIdx := make([]int, n)
		copy(myIdx, idx)
		d.MultiIndex(lo, myIdx)
		// Walk source indices in natural order, maintaining the
		// destination offset incrementally (odometer).
		dst := 0
		for m, i := range myIdx {
			dst += i * dstStride[m]
		}
		for l := lo; l < hi; l++ {
			out.data[dst] = d.data[l]
			// Increment the odometer.
			for m := 0; m < n; m++ {
				myIdx[m]++
				dst += dstStride[m]
				if myIdx[m] < d.dims[m] {
					break
				}
				dst -= myIdx[m] * dstStride[m]
				myIdx[m] = 0
			}
		}
	})
	return out
}

// identityPerm returns [0, 1, …, n-1].
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// ModeToFront returns the permutation that moves mode n first, preserving
// the order of the remaining modes — the permutation the classical
// matricization approach applies before its single GEMM.
func ModeToFront(order, n int) []int {
	p := make([]int, 0, order)
	p = append(p, n)
	for k := 0; k < order; k++ {
		if k != n {
			p = append(p, k)
		}
	}
	return p
}

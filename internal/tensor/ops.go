package tensor

import (
	"fmt"
)

// TTV computes the tensor-times-vector product Y = X ×n v, contracting
// mode n against v (length I_n). The result has order N-1. This reference
// implementation exists for validation; the performance-critical
// multi-TTVs (the derivations of core.SweepAll and of the 2-step MTTKRP)
// contract in place in this loop order, pinned to its bits.
func (d *Dense) TTV(n int, v []float64) *Dense {
	if len(v) != d.dims[n] {
		panic(fmt.Sprintf("tensor: ttv vector length %d != dim %d of mode %d", len(v), d.dims[n], n))
	}
	if len(d.dims) == 1 {
		s := 0.0
		for i, x := range d.data {
			s += x * v[i]
		}
		out := New(1)
		out.data[0] = s
		return out
	}
	outDims := make([]int, 0, len(d.dims)-1)
	for k, dim := range d.dims {
		if k != n {
			outDims = append(outDims, dim)
		}
	}
	out := New(outDims...)
	il := d.SizeLeft(n)
	in := d.dims[n]
	ir := d.SizeRight(n)
	// Linear index of output = l + j·I^L_n over (left, right) pairs.
	for j := 0; j < ir; j++ {
		for i := 0; i < in; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			src := d.data[j*il*in+i*il : j*il*in+(i+1)*il]
			dst := out.data[j*il : (j+1)*il]
			for l, x := range src {
				dst[l] += vi * x
			}
		}
	}
	return out
}

// TTM computes the tensor-times-matrix product Y = X ×n Mᵀ in the paper's
// convention Y_(n) = Mᵀ·X_(n), where M is I_n × C; the result has dimension
// C in mode n. Reference implementation for validation.
func (d *Dense) TTM(n int, m [][]float64) *Dense {
	in := d.dims[n]
	if len(m) != in {
		panic(fmt.Sprintf("tensor: ttm matrix has %d rows, want %d", len(m), in))
	}
	c := len(m[0])
	outDims := d.Dims()
	outDims[n] = c
	out := New(outDims...)
	il := d.SizeLeft(n)
	ir := d.SizeRight(n)
	for j := 0; j < ir; j++ {
		for i := 0; i < in; i++ {
			src := d.data[j*il*in+i*il : j*il*in+(i+1)*il]
			for cc := 0; cc < c; cc++ {
				w := m[i][cc]
				if w == 0 {
					continue
				}
				dst := out.data[j*il*c+cc*il : j*il*c+(cc+1)*il]
				for l, x := range src {
					dst[l] += w * x
				}
			}
		}
	}
	return out
}

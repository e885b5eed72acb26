package blas

import (
	"fmt"

	"repro/internal/mat"
)

// Gemv computes y = alpha*A*x + beta*y sequentially on the calling
// goroutine, choosing a row-oriented (dot) or column-oriented (axpy) sweep
// based on A's layout. A may have any strides; the multi-TTV step of the
// 2-step MTTKRP calls this from its worker bodies on row-major and
// column-major subtensor matricizations (Figures 3b and 3d of the paper).
func Gemv(alpha float64, a mat.View, x mat.Vec, beta float64, y mat.Vec) {
	if a.C != x.N {
		panic(fmt.Sprintf("blas: gemv dimension mismatch: A is %dx%d, x has %d", a.R, a.C, x.N))
	}
	if a.R != y.N {
		panic(fmt.Sprintf("blas: gemv dimension mismatch: A is %dx%d, y has %d", a.R, a.C, y.N))
	}
	if a.R == 0 {
		return
	}
	if beta != 1 {
		if beta == 0 {
			for i := 0; i < y.N; i++ {
				y.Set(i, 0)
			}
		} else {
			Scal(beta, y)
		}
	}
	if alpha == 0 || a.C == 0 {
		return
	}
	if a.CS == 1 {
		// Row-major-like: each output element is a contiguous dot product.
		for i := 0; i < a.R; i++ {
			y.Set(i, y.At(i)+alpha*Dot(a.Row(i), x))
		}
		return
	}
	if a.RS == 1 && y.Inc == 1 {
		// Column-major: stream columns with axpy into contiguous y.
		yd := y.Data[:y.N]
		for j := 0; j < a.C; j++ {
			ax := alpha * x.At(j)
			if ax == 0 {
				continue
			}
			col := a.Col(j)
			cd := col.Data[:col.N]
			for i := range cd {
				yd[i] += ax * cd[i]
			}
		}
		return
	}
	// General strides.
	for i := 0; i < a.R; i++ {
		s := 0.0
		for j := 0; j < a.C; j++ {
			s += a.At(i, j) * x.At(j)
		}
		y.Set(i, y.At(i)+alpha*s)
	}
}

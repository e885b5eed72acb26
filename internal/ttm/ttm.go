// Package ttm implements the dense tensor-times-matrix product with the
// same no-reorder layout strategy as the MTTKRP kernels: the mode-n TTM is
// performed block-by-block on the I^R_n contiguous row-major submatrices of
// X_(n) (Li et al. [14], Austin et al. [5] — the works the paper credits
// for the 1-step algorithm's layout observation). TTM is the substrate on
// which Tucker-style analyses and the CP diagnostics in package cpd are
// built.
package ttm

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Multiply computes Y = X ×n M, defined by Y_(n) = Mᵀ·X_(n), where M is an
// I_n × C matrix. The result has dimension C in mode n and X's dimensions
// elsewhere. Work is split by tensor block across t workers of p (a nil p
// selects the default pool), and no tensor entries are reordered: each
// block multiply is a GEMM on strided views.
func Multiply(p parallel.Executor, t int, x *tensor.Dense, n int, m mat.View) *tensor.Dense {
	if n < 0 || n >= x.Order() {
		panic(fmt.Sprintf("ttm: mode %d out of range [0,%d)", n, x.Order()))
	}
	if m.R != x.Dim(n) {
		panic(fmt.Sprintf("ttm: matrix has %d rows, want I_%d = %d", m.R, n, x.Dim(n)))
	}
	c := m.C
	outDims := x.Dims()
	outDims[n] = c
	y := tensor.New(outDims...)

	il := x.SizeLeft(n)
	nblk := x.NumModeBlocks(n)
	// Y's natural layout has the same block structure: block j of Y_(n) is
	// a C × I^L_n row-major submatrix at offset j·C·I^L_n.
	ydata := y.Data()
	mt := m.T()
	// One workspace for the whole multiply: each worker packs its block
	// GEMMs from its own arena instead of taking the pool's workspace lock
	// once per block.
	p = parallel.OrDefault(p)
	t = parallel.Clamp(p.Effective(t), nblk)
	ws := p.Acquire()
	ws.Arena(t - 1) // pre-grow arenas before the dispatch
	p.For(t, nblk, func(w, lo, hi int) {
		ar := ws.Arena(w)
		for j := lo; j < hi; j++ {
			yblk := mat.FromRowMajor(ydata[j*c*il:(j+1)*c*il], c, il)
			blas.GemmArena(ar, 1, mt, x.ModeBlock(n, j), 0, yblk)
		}
	})
	ws.Release()
	return y
}

// Chain applies a TTM in every mode listed in ms (nil entries are skipped),
// contracting X with ms[k] in mode k. Dimensions shrink or grow per mode
// as the matrices dictate; modes are applied in increasing order. This is
// the multi-TTM used by Tucker compression and by the core-consistency
// diagnostic. Every multiply runs on p with t workers.
func Chain(p parallel.Executor, t int, x *tensor.Dense, ms []mat.View) *tensor.Dense {
	if len(ms) != x.Order() {
		panic(fmt.Sprintf("ttm: chain has %d matrices for an order-%d tensor", len(ms), x.Order()))
	}
	y := x
	for n, m := range ms {
		if m.Data == nil {
			continue
		}
		y = Multiply(p, t, y, n, m)
	}
	return y
}

// Package blas implements the dense linear-algebra kernels that the paper
// obtains from Intel MKL: a cache-blocked, packed, goroutine-parallel GEMM,
// a strided GEMV, and the level-1 routines the higher layers need. All
// routines operate on mat.View strided windows, so the tensor
// matricizations of the paper (column-major X_(0:n), row-major X_(n)
// blocks) are multiplied in place without reordering tensor entries.
//
// Parallel GEMM splits only the M dimension across workers, one
// contiguous stripe of rows each, and never splits N or K. Not splitting
// K deliberately reproduces the behaviour the paper observed in MKL:
// inner-product-shaped multiplications (small M·N, huge K) do not scale,
// because scaling them requires temporary per-thread output buffers and a
// reduction — the exact optimization the paper's 1-step algorithm
// performs at a higher level.
//
// Packing A reads the tensor itself, once per GEMM, so the packers have
// unit-stride paths for column-major and row-major sources (DESIGN §12).
// Every path is a pure copy: the output bits never depend on the layout.
package blas

import (
	"fmt"

	"repro/internal/mat"
)

// Blocking parameters for the packed GEMM. MC×KC float64 ≈ 256 KiB fits
// comfortably in a typical L2 cache; the KC×NR B micro-panels stream
// through L1.
const (
	mcDefault = 128
	kcDefault = 256
	ncDefault = 2048

	mr = 4 // micro-kernel rows
	nr = 4 // micro-kernel cols
)

// Blocking carries GEMM cache-blocking parameters. The zero value selects
// the package defaults; it exists so ablation benchmarks can sweep the
// design space.
type Blocking struct {
	MC, KC, NC int
}

func (b Blocking) orDefault() Blocking {
	if b.MC <= 0 {
		b.MC = mcDefault
	}
	if b.KC <= 0 {
		b.KC = kcDefault
	}
	if b.NC <= 0 {
		b.NC = ncDefault
	}
	// Round MC/NC to multiples of the micro-kernel so packing stays simple.
	b.MC = roundUp(b.MC, mr)
	b.NC = roundUp(b.NC, nr)
	return b
}

func roundUp(x, m int) int {
	if r := x % m; r != 0 {
		x += m - r
	}
	return x
}

func checkGemmDims(a, b, c mat.View) (m, n, k int) {
	m, k = a.R, a.C
	if b.R != k {
		panic(fmt.Sprintf("blas: gemm inner dimension mismatch: A is %dx%d, B is %dx%d", a.R, a.C, b.R, b.C))
	}
	n = b.C
	if c.R != m || c.C != n {
		panic(fmt.Sprintf("blas: gemm output dimension mismatch: want %dx%d, got %dx%d", m, n, c.R, c.C))
	}
	return m, n, k
}

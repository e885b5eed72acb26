package tensor

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Matricize returns the classical mode-n matricization X_(n) as a stride
// view when one exists without reordering: mode 0 (column-major) and mode
// N-1 (row-major). For internal modes no single strided view exists — use
// ModeBlock (the 1-step algorithm's block structure) or Unfold (explicit
// reorder). Matricize panics for internal modes.
func (d *Dense) Matricize(n int) mat.View {
	N := len(d.dims)
	switch {
	case n == 0:
		return mat.FromColMajor(d.data, d.dims[0], d.SizeOther(0))
	case n == N-1:
		return mat.FromRowMajor(d.data, d.dims[n], d.SizeLeft(n))
	default:
		panic(fmt.Sprintf("tensor: X_(%d) of an order-%d tensor is not a single strided view; use ModeBlock or Unfold", n, N))
	}
}

// NumModeBlocks returns I^R_n, the number of contiguous row-major blocks
// that make up X_(n) (Figure 2 of the paper).
func (d *Dense) NumModeBlocks(n int) int { return d.SizeRight(n) }

// ModeBlock returns the j-th column block of X_(n), an I_n × I^L_n
// row-major view onto contiguous storage (0 ≤ j < I^R_n). Together the
// blocks tile X_(n): block j covers columns [j·I^L_n, (j+1)·I^L_n).
func (d *Dense) ModeBlock(n, j int) mat.View {
	il := d.SizeLeft(n)
	in := d.dims[n]
	nblk := d.SizeRight(n)
	if j < 0 || j >= nblk {
		panic(fmt.Sprintf("tensor: mode-%d block %d out of range [0,%d)", n, j, nblk))
	}
	off := j * in * il
	return mat.FromRowMajor(d.data[off:off+in*il], in, il)
}

// MatricizeRowModes returns the generalized matricization X_(0:n) with
// modes 0..n as rows, an (I_0⋯I_n) × I^R_n column-major view. This is the
// single-BLAS-call operand of the 2-step algorithm's partial MTTKRP.
func (d *Dense) MatricizeRowModes(n int) mat.View {
	rows := d.SizeLeft(n) * d.dims[n]
	cols := len(d.data) / rows
	return mat.FromColMajor(d.data, rows, cols)
}

// Unfold explicitly reorders tensor entries into a freshly allocated
// column-major X_(n) (I_n × I_{≠n}). This is the memory-bound operation the
// paper's algorithms exist to avoid; it is provided as the baseline
// (Bader–Kolda) path and for tests. Work is split by column across t
// workers of p (a nil p selects the default pool).
func (d *Dense) Unfold(p parallel.Executor, t, n int) mat.View {
	in := d.dims[n]
	il := d.SizeLeft(n)
	ir := d.SizeRight(n)
	out := make([]float64, len(d.data))
	p = parallel.OrDefault(p)
	if il == 1 {
		// Mode 0 (or leading dim-1 modes): the natural layout already is
		// the column-major matricization, so the "reorder" is a copy.
		p.For(t, len(d.data), func(_, lo, hi int) {
			copy(out[lo:hi], d.data[lo:hi])
		})
		return mat.FromColMajor(out, in, il*ir)
	}
	// Column col = l + j·I^L_n of X_(n) holds fiber X(…, :, …) with left
	// index l and right index j; source entry i lives at l + i·I^L_n +
	// j·I^L_n·I_n, destination at i + col·I_n (column-major). Workers
	// split the I^L_n·I^R_n columns, so every mode uses all t, the last
	// (I^R_n = 1) included; each walks its columns one right index j at a
	// time, reading its l range of every row contiguously.
	p.For(t, il*ir, func(_, lo, hi int) {
		for col := lo; col < hi; {
			j, l0 := col/il, col%il
			l1 := min(il, l0+hi-col)
			src := d.data[j*il*in : (j+1)*il*in]
			for i := 0; i < in; i++ {
				row := src[i*il+l0 : i*il+l1]
				base := (j*il+l0)*in + i
				for l, v := range row {
					out[base+l*in] = v
				}
			}
			col += l1 - l0
		}
	})
	return mat.FromColMajor(out, in, il*ir)
}

// Fold is the inverse of Unfold: it scatters a column-major X_(n) back into
// a natural-layout tensor with the given dims (test helper).
func Fold(m mat.View, n int, dims []int) *Dense {
	d := New(dims...)
	in := dims[n]
	il := d.SizeLeft(n)
	ir := d.SizeRight(n)
	if m.R != in || m.C != il*ir {
		panic(fmt.Sprintf("tensor: fold of %dx%d into mode %d of %v", m.R, m.C, n, dims))
	}
	for j := 0; j < ir; j++ {
		for i := 0; i < in; i++ {
			for l := 0; l < il; l++ {
				d.data[l+i*il+j*il*in] = m.At(i, j*il+l)
			}
		}
	}
	return d
}

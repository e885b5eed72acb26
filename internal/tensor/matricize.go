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
	// j·I^L_n·I_n, destination at i + col·I_n (column-major). So right
	// index j's slab is a transpose: the I_n × I^L_n row-major source
	// becomes I^L_n × I_n row-major. Workers split the I^L_n·I^R_n
	// columns, so every mode uses all t, the last (I^R_n = 1) included;
	// each transposes its columns one right index j at a time.
	p.For(t, il*ir, func(_, lo, hi int) {
		for col := lo; col < hi; {
			j, l0 := col/il, col%il
			l1 := min(il, l0+hi-col)
			slab := d.data[j*il*in : (j+1)*il*in]
			transposeCols(out[j*il*in:(j+1)*il*in], slab, in, il, l0, l1)
			col += l1 - l0
		}
	})
	return mat.FromColMajor(out, in, il*ir)
}

// Unfold's transpose tile: 16 source rows by 64 source columns, 8 KiB
// read and 8 KiB written, so a tile's cache lines stay in L1 while it is
// copied.
const tileRows, tileCols = 16, 64

// transposeCols copies columns [l0, l1) of the rows × cols row-major src
// into the cols × rows row-major dst, dst[l·rows+i] = src[i·cols+l], one
// tile at a time. A 64-column strip of src fills one contiguous stretch
// of dst, so both sides stream whole cache lines, where a plain scatter
// writes one line per element once a dst row (rows·8 bytes) outgrows a
// line.
func transposeCols(dst, src []float64, rows, cols, l0, l1 int) {
	for lb := l0; lb < l1; lb += tileCols {
		le := min(l1, lb+tileCols)
		for ib := 0; ib < rows; ib += tileRows {
			ie := min(rows, ib+tileRows)
			for l := lb; l < le; l++ {
				d := dst[l*rows+ib : l*rows+ie]
				for q := range d {
					d[q] = src[(ib+q)*cols+l]
				}
			}
		}
	}
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

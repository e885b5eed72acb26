// Package krp implements the paper's first contribution: row-wise
// computation of the Khatri-Rao product (KRP) of Z matrices with reuse of
// partial Hadamard products (Algorithm 1), its naive counterpart, and the
// parallel variant that assigns contiguous row blocks to workers.
//
// Ordering convention (matching the paper's K = A ⊙ B ⊙ C): row j of the
// output is the Hadamard product of one row from each input, where the
// LAST operand's row index varies fastest: j = (…(l₀·J₁ + l₁)·J₂ + …) +
// l_{Z-1}. For the mode-n MTTKRP the operand list is therefore
// [U_{N-1}, …, U_{n+1}, U_{n-1}, …, U₀], so that U₀'s index varies fastest,
// matching the column order of the matricization X_(n).
package krp

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/simd"
)

// NumRows returns the row count of the KRP of mats, ∏ J_z.
func NumRows(mats []mat.View) int {
	rows := 1
	for _, m := range mats {
		rows *= m.R
	}
	return rows
}

func checkOperands(mats []mat.View, out mat.View) (rows, cols int) {
	if len(mats) == 0 {
		panic("krp: no operands")
	}
	cols = mats[0].C
	for z, m := range mats {
		if m.C != cols {
			panic(fmt.Sprintf("krp: operand %d has %d columns, want %d", z, m.C, cols))
		}
		if m.CS != 1 {
			panic("krp: operands must have unit column stride (row-major rows)")
		}
	}
	rows = NumRows(mats)
	if out.R != rows || out.C != cols {
		panic(fmt.Sprintf("krp: output is %dx%d, want %dx%d", out.R, out.C, rows, cols))
	}
	if out.CS != 1 || out.RS != out.C {
		panic("krp: output must be contiguous row-major")
	}
	return rows, cols
}

// Full computes the complete KRP of mats into out (∏J_z × C row-major)
// sequentially using Algorithm 1 (reuse of partial Hadamard products).
func Full(mats []mat.View, out mat.View) {
	rows, _ := checkOperands(mats, out)
	var it Iter
	it.Reset(mats, 0)
	for j := 0; j < rows; j++ {
		it.Next(out.ContiguousRow(j))
	}
}

// Rows computes rows [lo, hi) of the KRP of mats into out
// ((hi-lo) × C row-major). This is the streaming building block of the
// parallel variant and of the 1-step algorithm's external-mode threads,
// which each need only their own row block of K.
func Rows(mats []mat.View, lo, hi int, out mat.View) {
	var it Iter
	RowsIter(&it, mats, lo, hi, out)
}

// RowsIter is Rows with caller-owned iterator state: resetting a retained
// Iter reuses its multi-index and partial-product storage, so streaming a
// row block allocates nothing after the first use. The 1-step algorithm's
// workers keep one Iter per worker in their workspace arena.
func RowsIter(it *Iter, mats []mat.View, lo, hi int, out mat.View) {
	if lo < 0 || hi < lo || hi > NumRows(mats) {
		panic(fmt.Sprintf("krp: row range [%d,%d) out of bounds", lo, hi))
	}
	if out.R != hi-lo {
		panic(fmt.Sprintf("krp: output has %d rows, want %d", out.R, hi-lo))
	}
	if hi == lo {
		return
	}
	if out.CS != 1 || out.RS != out.C {
		panic("krp: output must be contiguous row-major")
	}
	it.Reset(mats, lo)
	for j := 0; j < hi-lo; j++ {
		it.Next(out.ContiguousRow(j))
	}
}

// parallelFrame is the reusable dispatch state of ParallelOn; it lives in a
// Workspace so repeated calls reuse one closure and per-worker iterators.
type parallelFrame struct {
	mats []mat.View
	out  mat.View
	its  []Iter
	body func(w, lo, hi int)
}

func newParallelFrame() any {
	f := &parallelFrame{}
	f.body = func(w, lo, hi int) {
		it := &f.its[w]
		it.Reset(f.mats, lo)
		for j := lo; j < hi; j++ {
			it.Next(f.out.ContiguousRow(j))
		}
	}
	return f
}

// ParallelOn computes the complete KRP on p (pool or lease) with t
// workers, each producing a contiguous block of output rows. Each worker
// initializes its multi-index and partial-product table from its starting
// row (Section 4.1.2) and then streams rows exactly like the sequential
// algorithm. The per-worker iterators are cached in ws, so in steady state
// it allocates nothing. ws must be a workspace of p that the caller
// currently owns; p must be non-nil.
func ParallelOn(p parallel.Executor, ws *parallel.Workspace, t int, mats []mat.View, out mat.View) {
	rows, _ := checkOperands(mats, out)
	t = parallel.Clamp(p.Effective(t), rows)
	f := ws.Frame("krp.parallel", newParallelFrame).(*parallelFrame)
	for len(f.its) < t {
		f.its = append(f.its, Iter{})
	}
	f.mats, f.out = mats, out
	p.For(t, rows, f.body)
	f.mats, f.out = nil, mat.View{}
}

// Naive computes the KRP row-wise without reuse: every row performs Z-1
// Hadamard products. It exists as the paper's baseline for Figure 4.
func Naive(mats []mat.View, out mat.View) {
	rows, _ := checkOperands(mats, out)
	l := make([]int, len(mats))
	for j := 0; j < rows; j++ {
		Row(mats, l, out.ContiguousRow(j))
		incrementMultiIndex(mats, l)
	}
}

// NaiveParallel is Naive with contiguous row blocks across t workers of p
// (a nil p selects the default pool).
func NaiveParallel(p parallel.Executor, t int, mats []mat.View, out mat.View) {
	rows, _ := checkOperands(mats, out)
	parallel.OrDefault(p).For(t, rows, func(_, lo, hi int) {
		l := decompose(mats, lo, make([]int, len(mats)))
		for j := lo; j < hi; j++ {
			Row(mats, l, out.ContiguousRow(j))
			incrementMultiIndex(mats, l)
		}
	})
}

// Row computes a single KRP row, the Hadamard product of mats[z] row l[z],
// into out.
//
//mttkrp:noalloc
func Row(mats []mat.View, l []int, out []float64) {
	copy(out, mats[0].ContiguousRow(l[0]))
	for z := 1; z < len(mats); z++ {
		blas.Had(out, mats[z].ContiguousRow(l[z]), out)
	}
}

// RowAt computes KRP row j directly from the flat row index.
func RowAt(mats []mat.View, j int, out []float64) {
	RowAtInto(mats, j, out, make([]int, len(mats)))
}

// RowAtInto is RowAt with a caller-owned multi-index buffer l (length ≥
// len(mats)), so hot block loops can compute KRP rows without allocating.
//
//mttkrp:noalloc
func RowAtInto(mats []mat.View, j int, out []float64, l []int) {
	Row(mats, decompose(mats, j, l[:len(mats)]), out)
}

// HadamardExpand computes out = row ⊙ kl in the Khatri-Rao sense of a
// 1-row matrix with kl: out(l, :) = row ∗ kl(l, :). The 1-step algorithm
// uses it to form the KRP row block matching one tensor block from a right
// KRP row and the left KRP (Algorithm 3, line 15).
//
//mttkrp:noalloc
func HadamardExpand(row []float64, kl mat.View, out mat.View) {
	if kl.R != out.R || kl.C != out.C || len(row) != kl.C {
		panic("krp: hadamard expand dimension mismatch")
	}
	if kl.IsRowMajor() && out.IsRowMajor() {
		// Contiguous operands (the kernel-worker case: arena-backed K
		// blocks and plan row blocks): one flat call, so the row loop
		// and its per-row dispatch overhead live inside the kernel.
		simd.HadExpand(row, kl.Data[:kl.R*kl.C], out.Data[:out.R*out.C])
		return
	}
	for l := 0; l < kl.R; l++ {
		blas.Had(row, kl.ContiguousRow(l), out.ContiguousRow(l))
	}
}

// decompose writes the multi-index of flat row j into l (last index
// fastest) and returns l.
//
//mttkrp:noalloc
func decompose(mats []mat.View, j int, l []int) []int {
	for z := len(mats) - 1; z >= 0; z-- {
		l[z] = j % mats[z].R
		j /= mats[z].R
	}
	return l
}

// incrementMultiIndex advances l by one row (last index fastest) and
// returns the smallest z whose coordinate changed (len(mats)-1 for the
// common case; 0 means the slowest coordinate rolled).
//
//mttkrp:noalloc
func incrementMultiIndex(mats []mat.View, l []int) int {
	for z := len(mats) - 1; z >= 0; z-- {
		l[z]++
		if l[z] < mats[z].R {
			return z
		}
		l[z] = 0
	}
	return 0
}

// Iter streams KRP rows from an arbitrary starting row, maintaining the
// Z-2 partial Hadamard products P of Algorithm 1. P[w] is the product of
// rows 0..w+1 of the operand list (the slow indices); each output row is
// one Hadamard product of P[Z-3] with the fastest operand's row.
//
// The zero Iter is ready for Reset. Its multi-index and partial-product
// storage grows monotonically and is reused across Resets, so a retained
// Iter streams row blocks without allocating.
type Iter struct {
	mats []mat.View
	l    []int
	pbuf []float64
	p    mat.View // (Z-2) × C partial products
	cols int
}

// Reset positions the iterator at startRow of the KRP of mats, reusing any
// scratch storage from previous use.
//
//mttkrp:noalloc
func (it *Iter) Reset(mats []mat.View, startRow int) {
	z := len(mats)
	it.mats = mats
	it.cols = mats[0].C
	if cap(it.l) < z {
		//lint:ignore mttkrp/noalloc cold-path growth; a reused iterator keeps its buffer
		it.l = make([]int, z)
	}
	it.l = decompose(mats, startRow, it.l[:z])
	it.p = mat.View{}
	if z >= 3 {
		if need := (z - 2) * it.cols; cap(it.pbuf) < need {
			//lint:ignore mttkrp/noalloc cold-path growth; a reused iterator keeps its buffer
			it.pbuf = make([]float64, need)
		}
		it.p = mat.FromRowMajor(it.pbuf[:(z-2)*it.cols], z-2, it.cols)
		it.rebuildFrom(0)
	}
}

// rebuildFrom recomputes partial products P[w] for w ≥ max(z-1, 0), where
// z is the smallest operand index whose row changed.
//
//mttkrp:noalloc
func (it *Iter) rebuildFrom(z int) {
	w := z - 1
	if w < 0 {
		w = 0
	}
	for ; w < it.p.R; w++ {
		dst := it.p.ContiguousRow(w)
		if w == 0 {
			blas.Had(it.mats[0].ContiguousRow(it.l[0]), it.mats[1].ContiguousRow(it.l[1]), dst)
			continue
		}
		blas.Had(it.p.ContiguousRow(w-1), it.mats[w+1].ContiguousRow(it.l[w+1]), dst)
	}
}

// Next writes the current row into out and advances the iterator.
//
//mttkrp:noalloc
func (it *Iter) Next(out []float64) {
	z := len(it.mats)
	last := it.mats[z-1].ContiguousRow(it.l[z-1])
	switch z {
	case 1:
		copy(out, last)
	case 2:
		blas.Had(it.mats[0].ContiguousRow(it.l[0]), last, out)
	default:
		blas.Had(it.p.ContiguousRow(z-3), last, out)
	}
	changed := incrementMultiIndex(it.mats, it.l)
	// Only indices z-2 and below affect P (the last operand is never part
	// of a partial product), and this happens once every J_{Z-1} rows.
	if z >= 3 && changed <= z-2 {
		it.rebuildFrom(changed)
	}
}

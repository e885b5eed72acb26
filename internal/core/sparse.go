package core

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// Sparse MTTKRP straight from the tensor's sorted COO arrays: each entry
// (i_0, …, i_{N-1}) = v adds v · ∗_{k≠n} U_k(i_k, :) to row i_n of the
// output in one fused update, in COO order. The parallel schedule splits
// the entry range evenly across workers, so a skewed tensor (one output
// row holding most of the entries, the power-law shape of recommender
// data) still balances; the price is that any worker may touch any
// output row, which is why every worker owns a private I_n × C
// accumulator, merged in worker order by the pool's ReduceSum afterwards.
// No write locks and no per-mode copy of the entries — the same
// private-buffers-plus-reduction structure as the dense 1-step kernel.

// SparseCompute computes the mode-n MTTKRP of a sparse tensor, returning
// a fresh I_n × C row-major result.
func SparseCompute(x *tensor.Sparse, u []mat.View, n int, opts Options) mat.View {
	validateSparse(x, u, n)
	return SparseComputeInto(mat.NewDense(x.Dim(n), rank(u)), x, u, n, opts)
}

// SparseComputeInto computes the mode-n MTTKRP of a sparse tensor into a
// caller-owned contiguous row-major I_n × C matrix. With a retained dst
// and a persistent pool, repeated calls run with zero steady-state
// allocation.
func SparseComputeInto(dst mat.View, x *tensor.Sparse, u []mat.View, n int, opts Options) mat.View {
	validateSparse(x, u, n)
	c := rank(u)
	in := x.Dim(n)
	validateDst(dst, in, c)
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	clear(dst.Data[:in*c])
	nnz := int(x.NNZ())
	if nnz == 0 {
		return dst
	}
	bd := opts.Breakdown
	p := opts.pool()
	t := parallel.Clamp(p.Effective(opts.Threads), nnz)
	ws := p.Acquire()
	f := ws.Frame("core.sparse", newSparseFrame).(*sparseFrame)

	f.rows = x.Index(n)
	f.vals = x.Values()
	for k := range u {
		if k != n {
			f.ops = append(f.ops, sparseOperand{idx: x.Index(k), data: u[k].Data, rs: u[k].RS})
		}
	}
	f.c, f.nnz, f.t = c, nnz, t

	// Per-worker product scratch (order ≥ 4 only) and private
	// accumulator, arena-leased. Worker 0 accumulates into dst.
	for w := 0; w < t; w++ {
		ar := ws.Arena(w)
		if len(f.ops) > 2 {
			f.prodBufs = append(f.prodBufs, ar.Float64("core.sp.prod", c))
		}
		mb := dst
		if w > 0 {
			mb = arenaMatZero(ar, "core.sp.m", in, c)
		}
		f.parts = append(f.parts, mb.Data[:in*c])
	}

	totalW := startWatch()
	sw := startWatch()
	p.Run(t, f.worker)
	bd.add(PhaseGEMM, sw.elapsed()) // the flop core: the sparse analogue of the dense GEMM phase

	sw = startWatch()
	p.ReduceSum(t, f.parts)
	bd.add(PhaseReduce, sw.elapsed())
	bd.addTotal(totalW.elapsed())
	f.release()
	ws.Release()
	return dst
}

// sparseOperand is one contracted mode k ≠ n: the entries' mode-k
// coordinates and the factor U_k they index, row i at data[i*rs:].
type sparseOperand struct {
	idx  []int32
	data []float64
	rs   int
}

// row returns U_k's row for entry p.
//
//mttkrp:noalloc
func (o *sparseOperand) row(p, c int) []float64 {
	off := int(o.idx[p]) * o.rs
	return o.data[off : off+c]
}

// sparseFrame is the workspace-cached state of the sparse kernel: per-call
// parameters, per-worker buffers and the pre-bound worker closure, reused
// across calls so dispatching allocates nothing.
type sparseFrame struct {
	rows     []int32 // the entries' mode-n coordinates (output rows)
	vals     []float64
	ops      []sparseOperand // the N−1 contracted modes, ascending
	c        int
	nnz, t   int
	prodBufs [][]float64
	parts    [][]float64
	worker   func(w int)
}

func newSparseFrame() any {
	f := &sparseFrame{}
	f.worker = f.runWorker
	return f
}

// runWorker adds worker w's even share of the entries, in COO order, into
// its accumulator: one Axpy per entry on order 2, one HadAxpy on order 3,
// and on order N a Had chain over the first N−2 operands followed by one
// HadAxpy with the last. Each update rounds as the product chain built
// left to right, scaled by the value, then added to the row.
//
//mttkrp:noalloc
func (f *sparseFrame) runWorker(w int) {
	lo, hi := parallel.BlockRange(f.nnz, f.t, w)
	c := f.c
	acc := f.parts[w]
	rows, vals := f.rows[lo:hi], f.vals[lo:hi]
	switch ops := f.ops; len(ops) {
	case 1:
		a := &ops[0]
		for q, i := range rows {
			r := int(i) * c
			simd.Axpy(vals[q], a.row(lo+q, c), acc[r:r+c])
		}
	case 2:
		a, b := &ops[0], &ops[1]
		for q, i := range rows {
			r := int(i) * c
			simd.HadAxpy(vals[q], a.row(lo+q, c), b.row(lo+q, c), acc[r:r+c])
		}
	default:
		prod := f.prodBufs[w]
		last := &ops[len(ops)-1]
		mid := ops[2 : len(ops)-1]
		for q, i := range rows {
			p := lo + q
			simd.Had(ops[0].row(p, c), ops[1].row(p, c), prod)
			for k := range mid {
				simd.Had(prod, mid[k].row(p, c), prod)
			}
			r := int(i) * c
			simd.HadAxpy(vals[q], prod, last.row(p, c), acc[r:r+c])
		}
	}
}

// release clears caller references so the pooled workspace does not retain
// tensor, factor or result memory between calls.
func (f *sparseFrame) release() {
	for i := range f.ops {
		f.ops[i] = sparseOperand{}
	}
	f.ops = f.ops[:0]
	f.rows, f.vals = nil, nil
	for i := range f.prodBufs {
		f.prodBufs[i] = nil
	}
	f.prodBufs = f.prodBufs[:0]
	for i := range f.parts {
		f.parts[i] = nil
	}
	f.parts = f.parts[:0]
}

// validateSparse checks the factor matrices against a sparse tensor,
// mirroring the dense validate.
func validateSparse(x *tensor.Sparse, u []mat.View, n int) {
	nModes := x.Order()
	if nModes < 2 {
		panic("core: MTTKRP requires an order ≥ 2 tensor")
	}
	if len(u) != nModes {
		panic(fmt.Sprintf("core: %d factor matrices for an order-%d tensor", len(u), nModes))
	}
	if n < 0 || n >= nModes {
		panic(fmt.Sprintf("core: mode %d out of range [0,%d)", n, nModes))
	}
	c := u[0].C
	for k, m := range u {
		if m.R != x.Dim(k) {
			panic(fmt.Sprintf("core: factor %d has %d rows, want %d", k, m.R, x.Dim(k)))
		}
		if m.C != c {
			panic(fmt.Sprintf("core: factor %d has %d columns, want %d", k, m.C, c))
		}
		if m.CS != 1 {
			panic(fmt.Sprintf("core: factor %d must have unit column stride", k))
		}
	}
}

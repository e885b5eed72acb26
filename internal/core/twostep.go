package core

import (
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TwoStep is Algorithm 4, the 2-step MTTKRP of Phan et al.: a partial
// MTTKRP (one GEMM between a generalized matricization and a partial KRP)
// followed by a multi-TTV over the small intermediate. That is a depth-one
// dimension tree split at mode n, and it runs as one (halfStepInto): the
// right-first ordering is the half step at s = n+1, which contracts modes
// n+1..N-1 and keeps 0..n; the left-first ordering is the half step at
// s = n, which contracts 0..n-1 and keeps n..N-1. The order is chosen to
// minimize the flops of the second step, exactly as in the paper:
// left-first when I^L_n > I^R_n. The second step contracts the kept modes
// other than n one TTV at a time, so unlike Algorithm 4 no KRP of those
// modes is formed.
//
// For external modes the 2-step algorithm degenerates to the 1-step
// algorithm (the partial MTTKRP already is the full MTTKRP), so this
// function delegates to OneStep, mirroring the paper's benchmarks, which
// only report 2-step results for internal modes.
//
// Parallelism lives in the partial KRP and the GEMM (both split rows
// across workers) and across the C columns of the multi-TTV, so the bits
// do not depend on the worker count.
func TwoStep(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	return TwoStepInto(mat.NewDense(x.Dim(n), rank(u)), x, u, n, opts)
}

// TwoStepInto is TwoStep writing into a caller-owned contiguous row-major
// result matrix; all intermediates live in the pool's reusable workspaces.
func TwoStepInto(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	return ComputeInto(dst, MethodTwoStep, x, u, n, opts)
}

// TwoStepLeftFirst forces the left-first ordering regardless of the
// selection rule (internal modes only; exported for the ordering ablation
// benchmark).
func TwoStepLeftFirst(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	if isExternal(x, n) {
		panic("core: TwoStepLeftFirst requires an internal mode")
	}
	return halfStepInto(mat.NewDense(x.Dim(n), rank(u)), x, u, n, n, opts)
}

// TwoStepRightFirst forces the right-first ordering regardless of the
// selection rule (internal modes only; exported for the ordering ablation
// benchmark).
func TwoStepRightFirst(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	if isExternal(x, n) {
		panic("core: TwoStepRightFirst requires an internal mode")
	}
	return halfStepInto(mat.NewDense(x.Dim(n), rank(u)), x, u, n, n+1, opts)
}

// halfSplit is the one rule that picks mode n's kernel under method, for
// an order-N tensor whose k-th extent is dim(k). It returns the split s of
// the dimension-tree half step (halfStepInto) that computes the mode, or 0
// when the mode runs 1-step:
//
//   - under MethodAuto, when the balanced split s = SplitPoint(dims)
//     leaves at least two modes on each side, 2 ≤ s ≤ N−2 (order 4 and
//     up), every mode runs at s, internal modes included: one half of
//     SweepAll, whose partial KRP has about √|X| rows;
//   - otherwise an internal mode under MethodTwoStep or MethodAuto runs
//     2-step: s = n+1 (right-first) when I^L_n ≤ I^R_n, s = n
//     (left-first) otherwise;
//   - every other mode runs 1-step. For order 2 and 3 one half of any
//     split is a single mode, and the split's GEMM and derivation then
//     cost about what the KRP they replace does.
func halfSplit(method Method, order int, dim func(k int) int, n int) int {
	if method == MethodAuto {
		if s := splitOver(order, dim); s >= 2 && s <= order-2 {
			return s
		}
	}
	if (method != MethodTwoStep && method != MethodAuto) || n == 0 || n == order-1 {
		return 0
	}
	left, right := 1, 1
	for k := 0; k < order; k++ {
		if k < n {
			left *= dim(k)
		} else if k > n {
			right *= dim(k)
		}
	}
	if left <= right {
		return n + 1
	}
	return n
}

// halfStepInto computes mode n's MTTKRP into dst with one step of the
// split-s dimension tree, 1 ≤ s ≤ N−1: halfStep contracts the half that
// does not hold n against its partial KRP, and deriveFromIntermediate
// yields mode n from the intermediate. It is 2-step's kernel (s = n or
// n+1) and MethodAuto's split path (s = SplitPoint on an external mode,
// where no KRP of the tensor's size is formed and no private outputs are
// reduced). The KRP splits rows, the GEMM splits output rows and the
// derivation splits columns, so the bits do not depend on the worker
// count; at s = SplitPoint and with a no-op update they equal SweepAll's
// for that mode.
func halfStepInto(dst mat.View, x *tensor.Dense, u []mat.View, n, s int, opts Options) mat.View {
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	bd := opts.Breakdown
	p := opts.pool()
	t := p.Effective(opts.Threads)
	ws := p.Acquire()
	dims := arenaDims(ws, x)

	// The kept half [lo, hi) holds mode n.
	keepLeft := n < s
	lo, hi := 0, s
	if !keepLeft {
		lo, hi = s, len(dims)
	}
	totalW := startWatch()
	inter := halfStep(opts, p, ws, t, x, u, s, keepLeft)
	sw := startWatch()
	deriveFromIntermediate(p, ws, t, inter, dims[lo:hi], u[lo:hi], n-lo, dst)
	bd.add(PhaseGEMV, sw.elapsed())
	bd.addTotal(totalW.elapsed())
	ws.Release()
	return dst
}

// planOrForm returns the partial KRP of ops: from the batch plan when its
// operand list matches (batch fusion skips the formation), formed into
// arena scratch otherwise. A plan can make a KRP cheaper, never wrong.
func planOrForm(opts Options, p parallel.Executor, ws *parallel.Workspace, t int, ops []mat.View) mat.View {
	if pl := opts.plan; pl != nil {
		if k, ok := pl.Lookup(ops); ok {
			return k
		}
	}
	k := arenaMat(ws.Arena(0), "core.half.k", krp.NumRows(ops), rank(ops))
	krp.ParallelOn(p, ws, t, ops, k)
	return k
}

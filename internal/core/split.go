package core

import (
	"repro/internal/mat"
	"repro/internal/tensor"
)

// autoKind is the kernel MethodAuto runs for one mode.
type autoKind int

const (
	autoOneStep autoKind = iota // external mode without a two-sided split
	autoTwoStep                 // internal mode
	autoSplit                   // external mode at a two-sided balanced split
)

// autoKernel is MethodAuto's rule for mode n of an order-N tensor whose
// k-th extent is dim(k). Internal modes run 2-step. An external mode runs
// the split path (splitExternal) when s = SplitPoint(dims) leaves at least
// two modes on each side, 2 ≤ s ≤ N−2, and 1-step otherwise: for order 2
// and 3 one half is always a single mode, and the split's GEMM and
// derivation then cost about what the KRP they replace does.
func autoKernel(order int, dim func(k int) int, n int) autoKind {
	if n != 0 && n != order-1 {
		return autoTwoStep
	}
	if s := splitOver(order, dim); s >= 2 && s <= order-2 {
		return autoSplit
	}
	return autoOneStep
}

// splitExternal is MethodAuto's kernel for an external mode n at a
// two-sided split s: one half step of SweepAll's dimension tree contracts
// the half that does not hold n against its partial KRP (about √|X| rows
// when the halves balance), and deriveFromIntermediate yields mode n from
// the small intermediate. No KRP of the tensor's size is formed, and no
// private outputs are reduced: the KRP splits rows, the GEMM splits output
// rows and the derivation splits columns, so the bits do not depend on the
// worker count. With a no-op update they equal SweepAll's for that mode.
func splitExternal(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	bd := opts.Breakdown
	p := opts.pool()
	t := p.Effective(opts.Threads)
	ws := p.Acquire()
	dims := arenaDims(ws, x)
	s := SplitPoint(dims)

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

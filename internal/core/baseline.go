package core

import (
	"math/rand"

	"repro/internal/blas"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// Reorder is the classical Bader–Kolda MTTKRP: explicitly reorder tensor
// entries into a column-major X_(n), form the full KRP explicitly, and
// perform one GEMM. The reorder is the memory-bound step the 1-step and
// 2-step algorithms avoid; this method is the paper's "straightforward
// approach" (Section 2.3) and the computational core of Matlab Tensor
// Toolbox's dense MTTKRP, used here as the Figure 7 comparator.
func Reorder(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	return ReorderInto(mat.NewDense(x.Dim(n), rank(u)), x, u, n, opts)
}

// ReorderInto is Reorder writing into a caller-owned contiguous row-major
// result matrix. The baseline allocates its O(|X|) temporaries — the
// unfolded copy and the full KRP — per call rather than leasing them from
// the pool's workspace: that memory traffic is the point of the baseline,
// and caching tensor-sized scratch in a long-lived pool would pin peak
// memory forever.
func ReorderInto(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	c := rank(u)
	validateDst(dst, x.Dim(n), c)
	p := opts.pool()
	t := p.Effective(opts.Threads)
	tAux := t // workers for the reorder and the KRP
	if opts.BlasOnlyParallel {
		tAux = 1
	}
	bd := opts.Breakdown
	ws := p.Acquire()
	vf := viewList(ws)
	vf.ops = appendOperands(vf.ops, u, n)
	ops := vf.ops

	k := mat.NewDense(krp.NumRows(ops), c)

	totalW := startWatch()
	sw := startWatch()
	xn := x.Unfold(p, tAux, n) // explicit reorder (copy)
	bd.add(PhaseReorder, sw.elapsed())

	sw = startWatch()
	krp.ParallelOn(p, ws, tAux, ops, k)
	bd.add(PhaseFullKRP, sw.elapsed())

	sw = startWatch()
	blas.GemmOn(p, t, 1, xn, k, 0, dst)
	bd.add(PhaseGEMM, sw.elapsed())
	bd.addTotal(totalW.elapsed())
	vf.ops = clearViews(vf.ops)
	ws.Release()
	return dst
}

// GemmBaseline is the paper's "Baseline" benchmark series: the time of a
// single GEMM between column-major matrices shaped like the matricized
// tensor (I_n × I_{≠n}) and the KRP (I_{≠n} × C). It is a lower bound on
// the straightforward approach — it excludes both the tensor reorder and
// the KRP formation — and is used as the reference line in Figures 5, 6,
// and 8. The operand contents are immaterial to the timing; they are
// filled with random values once at construction.
type GemmBaseline struct {
	a, b, c mat.View
}

// NewGemmBaseline allocates baseline operands for an I_n × I_{≠n} times
// I_{≠n} × C multiplication.
func NewGemmBaseline(in, other, c int) *GemmBaseline {
	rng := rand.New(rand.NewSource(1))
	g := &GemmBaseline{
		a: mat.NewColMajor(in, other),
		b: mat.NewColMajor(other, c),
		c: mat.NewDense(in, c),
	}
	g.a.Randomize(rng)
	g.b.Randomize(rng)
	return g
}

// NewGemmBaselineFor sizes the baseline for mode n of tensor x with rank c.
func NewGemmBaselineFor(x *tensor.Dense, n, c int) *GemmBaseline {
	return NewGemmBaseline(x.Dim(n), x.SizeOther(n), c)
}

// Run performs the baseline multiplication with t workers, recording GEMM
// time into bd when non-nil.
func (g *GemmBaseline) Run(t int, bd *Breakdown) {
	totalW := startWatch()
	sw := startWatch()
	blas.Gemm(t, 1, g.a, g.b, 0, g.c)
	bd.add(PhaseGEMM, sw.elapsed())
	bd.addTotal(totalW.elapsed())
}

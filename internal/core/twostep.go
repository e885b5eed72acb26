package core

import (
	"repro/internal/blas"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TwoStep is Algorithm 4, the 2-step MTTKRP of Phan et al.: a partial
// MTTKRP (one large GEMM between a column-major generalized matricization
// and a partial KRP) followed by a multi-TTV (C independent GEMVs on
// strided subtensor views). The step order — contract left modes first or
// right modes first — is chosen to minimize the flops of the second step,
// exactly as in the paper: left-first when I^L_n > I^R_n.
//
// For external modes the 2-step algorithm degenerates to the 1-step
// algorithm (the partial MTTKRP already is the full MTTKRP), so this
// function delegates to OneStep, mirroring the paper's benchmarks, which
// only report 2-step results for internal modes.
//
// Parallelism lives in the BLAS calls (the GEMM splits rows across
// workers) and across the C columns of the multi-TTV.
func TwoStep(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	return TwoStepInto(mat.NewDense(x.Dim(n), rank(u)), x, u, n, opts)
}

// TwoStepInto is TwoStep writing into a caller-owned contiguous row-major
// result matrix; all intermediates live in the pool's reusable workspaces.
func TwoStepInto(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	validateDst(dst, x.Dim(n), rank(u))
	if isExternal(x, n) {
		return OneStepInto(dst, x, u, n, opts)
	}
	if x.SizeLeft(n) > x.SizeRight(n) {
		return twoStepLeftFirst(dst, x, u, n, opts)
	}
	return twoStepRightFirst(dst, x, u, n, opts)
}

// TwoStepLeftFirst forces the left-first ordering regardless of the
// selection rule (internal modes only; exported for the ordering ablation
// benchmark).
func TwoStepLeftFirst(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	if isExternal(x, n) {
		panic("core: TwoStepLeftFirst requires an internal mode")
	}
	return twoStepLeftFirst(mat.NewDense(x.Dim(n), rank(u)), x, u, n, opts)
}

// TwoStepRightFirst forces the right-first ordering regardless of the
// selection rule (internal modes only; exported for the ordering ablation
// benchmark).
func TwoStepRightFirst(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	if isExternal(x, n) {
		panic("core: TwoStepRightFirst requires an internal mode")
	}
	return twoStepRightFirst(mat.NewDense(x.Dim(n), rank(u)), x, u, n, opts)
}

// twoStepFrame is the workspace-cached state of the multi-TTV step: the
// intermediate, the contracted KRP factor and the pre-bound column-loop
// bodies for both orderings.
type twoStepFrame struct {
	inter        mat.View // column-major intermediate (R or L)
	kv           mat.View // KRP factor contracted in step 2 (K_L or K_R)
	m            mat.View // result
	in, sub      int      // mode-n dimension; per-column subtensor size
	klOps, krOps []mat.View
	ttvRight     func(w, lo, hi int)
	ttvLeft      func(w, lo, hi int)
}

func newTwoStepFrame() any {
	f := &twoStepFrame{}
	// Right-first step 2: R_(n)[j] is the row-major I_n × I^L_n
	// matricization of subtensor j; columns are independent.
	f.ttvRight = func(_, lo, hi int) {
		il := f.sub / f.in
		for j := lo; j < hi; j++ {
			sub := f.inter.Data[j*f.sub : (j+1)*f.sub]
			rj := mat.FromRowMajor(sub, f.in, il)
			blas.Gemv(1, rj, f.kv.Col(j), 0, f.m.Col(j))
		}
	}
	// Left-first step 2: L_(0)[j] is the column-major I_n × I^R_n
	// mode-0 matricization of subtensor j.
	f.ttvLeft = func(_, lo, hi int) {
		ir := f.sub / f.in
		for j := lo; j < hi; j++ {
			sub := f.inter.Data[j*f.sub : (j+1)*f.sub]
			lj := mat.FromColMajor(sub, f.in, ir)
			blas.Gemv(1, lj, f.kv.Col(j), 0, f.m.Col(j))
		}
	}
	return f
}

// planOrForm returns the partial KRP of ops: from the batch plan when its
// operand list matches (batch fusion skips the formation), formed into
// arena scratch under tag otherwise. A plan can make a KRP cheaper, never
// wrong.
func planOrForm(opts Options, p parallel.Executor, ws *parallel.Workspace, t int, tag string, ops []mat.View) mat.View {
	if pl := opts.plan; pl != nil {
		if k, ok := pl.Lookup(ops); ok {
			return k
		}
	}
	k := arenaMat(ws.Arena(0), tag, krp.NumRows(ops), rank(ops))
	krp.ParallelOn(p, ws, t, ops, k)
	return k
}

func (f *twoStepFrame) release() {
	f.inter = mat.View{}
	f.kv = mat.View{}
	f.m = mat.View{}
	f.klOps = clearViews(f.klOps)
	f.krOps = clearViews(f.krOps)
}

// twoStepRightFirst computes R_(0:n) = X_(0:n)·K_R, then
// M(:, j) = R_(n)[j]·K_L(:, j) for each column j (Figures 3a and 3b).
func twoStepRightFirst(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	c := rank(u)
	in := x.Dim(n)
	il := x.SizeLeft(n)
	bd := opts.Breakdown
	p := opts.pool()
	t := p.Effective(opts.Threads)
	ws := p.Acquire()
	ar := ws.Arena(0)
	f := ws.Frame("core.twostep", newTwoStepFrame).(*twoStepFrame)

	// R is the (I₀⋯I_n) × C intermediate, column-major so that column j is
	// the j-th subtensor of the order-(n+2) tensor R in natural layout.
	r := arenaColMajor(ar, "core.2s.inter", il*in, c)

	totalW := startWatch()
	sw := startWatch()
	f.klOps = appendLeftOperands(f.klOps, u, n)
	f.krOps = appendRightOperands(f.krOps, u, n)
	kl := planOrForm(opts, p, ws, t, "core.2s.kl", f.klOps)
	kr := planOrForm(opts, p, ws, t, "core.2s.kr", f.krOps)
	bd.add(PhaseLRKRP, sw.elapsed())

	// Step 1: partial MTTKRP — a single (logical) BLAS call on the
	// column-major generalized matricization.
	sw = startWatch()
	blas.GemmOn(p, t, 1, x.MatricizeRowModes(n), kr, 0, r)
	bd.add(PhaseGEMM, sw.elapsed())

	// Step 2: multi-TTV over the C independent columns.
	sw = startWatch()
	f.inter, f.kv, f.m = r, kl, dst
	f.in, f.sub = in, il*in
	p.For(t, c, f.ttvRight)
	bd.add(PhaseGEMV, sw.elapsed())
	bd.addTotal(totalW.elapsed())
	f.release()
	ws.Release()
	return dst
}

// twoStepLeftFirst computes L_(0:N-n-1) = X_(0:n-1)ᵀ·K_L, then
// M(:, j) = L_(0)[j]·K_R(:, j) for each column j (Figures 3c and 3d).
func twoStepLeftFirst(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	c := rank(u)
	in := x.Dim(n)
	ir := x.SizeRight(n)
	bd := opts.Breakdown
	p := opts.pool()
	t := p.Effective(opts.Threads)
	ws := p.Acquire()
	ar := ws.Arena(0)
	f := ws.Frame("core.twostep", newTwoStepFrame).(*twoStepFrame)

	// L is (I_n⋯I_{N-1}) × C, column-major: column j is subtensor j of the
	// order-(N-n+1) tensor L in natural layout.
	l := arenaColMajor(ar, "core.2s.inter", in*ir, c)

	totalW := startWatch()
	sw := startWatch()
	f.klOps = appendLeftOperands(f.klOps, u, n)
	f.krOps = appendRightOperands(f.krOps, u, n)
	kl := planOrForm(opts, p, ws, t, "core.2s.kl", f.klOps)
	kr := planOrForm(opts, p, ws, t, "core.2s.kr", f.krOps)
	bd.add(PhaseLRKRP, sw.elapsed())

	// Step 1: X_(0:n-1) is column-major I^L_n × (I_n⋯I_{N-1}); its
	// transpose view is row-major, so the GEMM reads contiguous rows.
	sw = startWatch()
	blas.GemmOn(p, t, 1, x.MatricizeRowModes(n-1).T(), kl, 0, l)
	bd.add(PhaseGEMM, sw.elapsed())

	// Step 2: multi-TTV over the C independent columns.
	sw = startWatch()
	f.inter, f.kv, f.m = l, kr, dst
	f.in, f.sub = in, in*ir
	p.For(t, c, f.ttvLeft)
	bd.add(PhaseGEMV, sw.elapsed())
	bd.addTotal(totalW.elapsed())
	f.release()
	ws.Release()
	return dst
}

package core

import (
	"fmt"
	"time"

	"repro/internal/blas"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// SweepAll performs the MTTKRPs of one full ALS sweep (modes 0..N-1, in
// order) while avoiding recomputation across modes — the extension the
// paper names as its natural next step (Section 6), following Phan et al.
// [19, Section III.C]. It is the default dense CP-ALS sweep (cpd.ALS and
// cpd.NNALS with MethodAuto).
//
// The modes are split into a left half {0..s-1} and right half {s..N-1}
// with s = SplitPoint(dims), which minimizes the intermediate sizes. The
// sweep then costs two passes over the tensor instead of N:
//
//  1. a right partial MTTKRP R = X_(0:s-1)·K_R (one GEMM over all tensor
//     entries), from which each left mode's MTTKRP is derived by cheap
//     multi-TTVs over the small intermediate R;
//  2. after the left factors are updated, a left partial MTTKRP
//     L = X_(0:s-1)ᵀ·K_L, from which each right mode's MTTKRP is derived.
//
// Mode n's MTTKRP is derived into dsts[n], an I_n × C contiguous row-major
// matrix, and update(n, dsts[n]) is then called, once per mode in ALS
// order; it must perform the factor update (writing through u[n]) before
// returning, because later derivations read the updated factors. dsts[n]
// may alias u[n] (mode n's derivation never reads u[n]), which is how ALS
// keeps its solved factor in place. The scheme computes exactly the same
// MTTKRPs as per-mode calls inside an ALS sweep — this is an optimization,
// not an approximation.
//
// For order-2 tensors the intermediates are the results themselves and
// the scheme degenerates to two ordinary MTTKRPs.
//
// The whole sweep runs on one pool (opts.Pool or the default) and leases
// its intermediates and derivation buffers from one reusable workspace,
// so with retained dsts a steady-state sweep allocates nothing. The GEMMs
// split only the output rows and the derivations split columns, so the
// output bits do not depend on the worker count or on a lease resized
// between modes. opts.Breakdown's total covers the sweep's own work, not
// the update callbacks.
func SweepAll(x *tensor.Dense, u []mat.View, dsts []mat.View, opts Options, update func(n int, m mat.View)) {
	validate(x, u, 0)
	n := x.Order()
	c := rank(u)
	if len(dsts) != n {
		panic(fmt.Sprintf("core: %d destinations for an order-%d tensor", len(dsts), n))
	}
	for k, d := range dsts {
		validateDst(d, x.Dim(k), c)
	}
	opts.notifyPhase()
	bd := opts.Breakdown
	p := opts.pool()
	t := p.Effective(opts.Threads)
	ws := p.Acquire()
	vf := viewList(ws)
	dims := ws.Arena(0).Ints("core.sweep.dims", n)
	for k := range dims {
		dims[k] = x.Dim(k)
	}
	s := SplitPoint(dims)
	var total time.Duration
	totalW := startWatch()

	// Phase 1: contract the right half once; derive modes 0..s-1.
	leftSize := x.SizeLeft(s-1) * x.Dim(s-1)
	r := arenaColMajor(ws.Arena(0), "core.sweep.r", leftSize, c)
	vf.ops = appendRightOperands(vf.ops, u, s-1)
	kr := arenaMat(ws.Arena(0), "core.sweep.kr", krp.NumRows(vf.ops), c)
	sw := startWatch()
	krp.ParallelOn(p, ws, t, vf.ops, kr)
	bd.add(PhaseLRKRP, sw.elapsed())
	sw = startWatch()
	blas.GemmOn(p, t, 1, x.MatricizeRowModes(s-1), kr, 0, r)
	bd.add(PhaseGEMM, sw.elapsed())
	vf.ops = clearViews(vf.ops)

	for mode := 0; mode < s; mode++ {
		opts.notifyPhase() // per-mode phase boundary: budget changes land here
		sw = startWatch()
		deriveFromIntermediate(p, ws, t, r, dims[:s], u[:s], mode, dsts[mode])
		bd.add(PhaseGEMV, sw.elapsed())
		total += totalW.elapsed()
		update(mode, dsts[mode])
		totalW = startWatch()
	}

	// Phase 2: contract the (updated) left half once; derive s..N-1.
	rightSize := x.Size() / leftSize
	l := arenaColMajor(ws.Arena(0), "core.sweep.l", rightSize, c)
	vf.ops = appendLeftOperands(vf.ops, u, s)
	kl := arenaMat(ws.Arena(0), "core.sweep.kl", krp.NumRows(vf.ops), c)
	sw = startWatch()
	krp.ParallelOn(p, ws, t, vf.ops, kl)
	bd.add(PhaseLRKRP, sw.elapsed())
	sw = startWatch()
	blas.GemmOn(p, t, 1, x.MatricizeRowModes(s-1).T(), kl, 0, l)
	bd.add(PhaseGEMM, sw.elapsed())
	vf.ops = clearViews(vf.ops)

	for mode := s; mode < n; mode++ {
		opts.notifyPhase()
		sw = startWatch()
		deriveFromIntermediate(p, ws, t, l, dims[s:], u[s:], mode-s, dsts[mode])
		bd.add(PhaseGEMV, sw.elapsed())
		total += totalW.elapsed()
		update(mode, dsts[mode])
		totalW = startWatch()
	}
	bd.addTotal(total)
	ws.Release()
}

// SplitPoint returns the split s of SweepAll's two halves, {0..s-1} and
// {s..N-1}, for a dims-shaped tensor: the s that minimizes the combined
// size of the two intermediates, I_0⋯I_{s-1} + I_s⋯I_{N-1} (both scale
// with C), the first one on a tie. The serving cost model prices CP sweeps
// with it.
func SplitPoint(dims []int) int {
	best, bestCost := 1, -1
	for s := 1; s < len(dims); s++ {
		left, right := 1, 1
		for k, d := range dims {
			if k < s {
				left *= d
			} else {
				right *= d
			}
		}
		if cost := left + right; bestCost < 0 || cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// deriveFrame is the workspace-cached column-loop state of
// deriveFromIntermediate.
type deriveFrame struct {
	inter   mat.View
	dims    []int
	factors []mat.View
	mode    int
	out     mat.View
	ws      *parallel.Workspace
	body    func(w, lo, hi int)
}

func newDeriveFrame() any {
	f := &deriveFrame{}
	f.body = func(w, lo, hi int) {
		size := f.inter.R
		ar := f.ws.Arena(w)
		// Two ping-pong buffers hold the partly contracted subtensor.
		bufs := [2][]float64{ar.Float64("core.derive.a", size), ar.Float64("core.derive.b", size)}
		for col := lo; col < hi; col++ {
			sub := f.inter.Data[col*size : (col+1)*size]
			next := 0
			// Contract every mode except `mode`, highest original mode
			// first so remaining mode indices are unaffected.
			for k := len(f.dims) - 1; k >= 0; k-- {
				if k == f.mode {
					continue
				}
				v := ar.Float64("core.derive.v", f.factors[k].R)
				blas.CopyVec(f.factors[k].Col(col), mat.FromSlice(v))
				sub = ttvInto(bufs[next][:len(sub)/f.dims[k]], sub, f.dims, k, f.mode, v)
				next ^= 1
			}
			for i := 0; i < f.dims[f.mode]; i++ {
				f.out.Set(i, col, sub[i])
			}
		}
	}
	return f
}

// ttvInto contracts original mode k of a partly contracted subtensor src
// against v into dst and returns dst. src holds modes 0..k of dims, plus
// mode `mode` when it is above k (SweepAll's derivations contract the
// highest modes first and never mode itself), in natural layout. The
// loop order and the v[i] == 0 skip are tensor.Dense.TTV's, so the bits
// match it.
func ttvInto(dst, src []float64, dims []int, k, mode int, v []float64) []float64 {
	il := 1
	for _, d := range dims[:k] {
		il *= d
	}
	in := dims[k]
	ir := 1
	if mode > k {
		ir = dims[mode]
	}
	clear(dst)
	for j := 0; j < ir; j++ {
		for i := 0; i < in; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			s := src[j*il*in+i*il : j*il*in+(i+1)*il]
			d := dst[j*il : (j+1)*il]
			for l, x := range s {
				d[l] += vi * x
			}
		}
	}
	return dst
}

// deriveFromIntermediate computes the MTTKRP of mode `mode` (an index into
// dims/factors, which describe one half) from the half's intermediate into
// out: inter is an (∏dims) × C column-major matrix whose column c is the
// natural-layout subtensor for component c. Column c of the result is the
// subtensor contracted against factors[k] column c for every k ≠ mode.
// Columns are independent and processed in parallel.
func deriveFromIntermediate(p parallel.Executor, ws *parallel.Workspace, t int, inter mat.View, dims []int, factors []mat.View, mode int, out mat.View) {
	c := inter.C
	f := ws.Frame("core.derive", newDeriveFrame).(*deriveFrame)
	f.inter, f.dims, f.factors, f.mode, f.out, f.ws = inter, dims, factors, mode, out, ws
	ws.Arena(parallel.Clamp(t, c) - 1) // pre-grow arenas before the dispatch
	p.For(t, c, f.body)
	f.inter, f.out = mat.View{}, mat.View{}
	f.dims, f.factors = nil, nil
	f.ws = nil
}

package core

import (
	"time"

	"repro/internal/blas"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// OneStepSequential is Algorithm 2: form the full KRP with Algorithm 1,
// then multiply without reordering — a single GEMM for mode 0, or a block
// inner product over the I^R_n row-major blocks for other modes. It is the
// literal sequential algorithm; OneStep with Threads == 1 is the slightly
// leaner variant the paper actually benchmarks (it forms K blockwise for
// internal modes instead of all at once).
func OneStepSequential(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	c := rank(u)
	in := x.Dim(n)
	bd := opts.Breakdown
	totalW := startWatch()

	ops := operands(u, n)
	k := mat.NewDense(krp.NumRows(ops), c)
	m := mat.NewDense(in, c)

	w := startWatch()
	krp.Full(ops, k)
	bd.add(PhaseFullKRP, w.elapsed())

	w = startWatch()
	if n == 0 {
		// X_(0) is column-major: a single BLAS call.
		blas.GemmOn(opts.pool(), 1, 1, x.Matricize(0), k, 0, m)
	} else {
		il := x.SizeLeft(n)
		for j := 0; j < x.NumModeBlocks(n); j++ {
			kj := k.Slice(j*il, (j+1)*il, 0, c)
			blas.GemmOn(opts.pool(), 1, 1, x.ModeBlock(n, j), kj, 1, m)
		}
	}
	bd.add(PhaseGEMM, w.elapsed())
	bd.addTotal(totalW.elapsed())
	return m
}

// OneStep is Algorithm 3, the parallel 1-step MTTKRP. External modes
// (n = 0 or n = N-1) partition the columns of X_(n) across workers, each
// forming its own row block of the KRP and accumulating into a private
// output; internal modes precompute the left KRP and partition the
// I^R_n tensor blocks, forming each block's KRP rows on the fly. Both end
// with a parallel reduction of the private outputs.
func OneStep(x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	return OneStepInto(mat.NewDense(x.Dim(n), rank(u)), x, u, n, opts)
}

// OneStepInto is OneStep writing into a caller-owned contiguous row-major
// result matrix; with a retained dst it runs with zero steady-state
// allocation on the pool's reusable workspaces.
func OneStepInto(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	validateDst(dst, x.Dim(n), rank(u))
	if isExternal(x, n) {
		return oneStepExternal(dst, x, u, n, opts)
	}
	return oneStepInternal(dst, x, u, n, opts)
}

// oneStepExtFrame is the workspace-cached state of the external-mode
// kernel: per-call parameters, per-worker buffers, and the pre-bound worker
// closure, reused across calls so dispatching allocates nothing.
type oneStepExtFrame struct {
	ops      []mat.View
	xn       mat.View
	planK    mat.View // prebuilt full KRP (batch fusion); zero = form rows locally
	in, c    int
	classIn  int // GEMM size-class rows: the full mode-n extent when tiled
	t, other int
	kBufs    []mat.View
	mBufs    []mat.View
	parts    [][]float64
	its      []krp.Iter
	ws       *parallel.Workspace
	bd       *Breakdown
	baseKRP  time.Duration
	baseGEMM time.Duration
	worker   func(w int)
}

func newOneStepExtFrame() any {
	f := &oneStepExtFrame{}
	f.worker = f.runWorker
	return f
}

//mttkrp:noalloc
func (f *oneStepExtFrame) runWorker(w int) {
	lo, hi := parallel.BlockRange(f.other, f.t, w)
	if lo >= hi {
		return
	}
	var kt mat.View
	var dKRP time.Duration
	if f.planK.Data != nil {
		// Batch fusion: the full KRP is prebuilt; GEMM straight against
		// its row block, exactly as the unfused path does with its own.
		kt = f.planK.Slice(lo, hi, 0, f.c)
	} else {
		kt = f.kBufs[w].Slice(0, hi-lo, 0, f.c)
		sw := startWatch()
		krp.RowsIter(&f.its[w], f.ops, lo, hi, kt)
		dKRP = sw.elapsed()
	}
	sw := startWatch()
	// beta = 0: the GEMM overwrites the private accumulator.
	blas.GemmArenaClass(f.ws.Arena(w), f.classIn, 1, f.xn.Slice(0, f.in, lo, hi), kt, 0, f.mBufs[w])
	f.bd.addMax(PhaseFullKRP, f.baseKRP, dKRP)
	f.bd.addMax(PhaseGEMM, f.baseGEMM, sw.elapsed())
}

// release clears caller references so the pooled workspace does not retain
// factor or result memory between calls.
func (f *oneStepExtFrame) release() {
	f.ops = clearViews(f.ops)
	f.kBufs = clearViews(f.kBufs)
	f.mBufs = clearViews(f.mBufs)
	for i := range f.parts {
		f.parts[i] = nil
	}
	f.parts = f.parts[:0]
	f.xn = mat.View{}
	f.planK = mat.View{}
	f.ws = nil
	f.bd = nil
}

func oneStepExternal(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	c := rank(u)
	in := x.Dim(n)
	other := x.SizeOther(n)
	bd := opts.Breakdown
	p := opts.pool()
	t := parallel.Clamp(p.Effective(opts.Threads), other)
	ws := p.Acquire()
	f := ws.Frame("core.onestep.ext", newOneStepExtFrame).(*oneStepExtFrame)

	f.ops = appendOperands(f.ops, u, n)
	f.xn = x.Matricize(n)
	f.in, f.c, f.t, f.other = in, c, t, other
	f.classIn = opts.classRows(in)
	if pl := opts.plan; pl != nil {
		// External modes have a one-sided operand set, so the plan's
		// partial KRP for that side is the full K.
		f.planK, _ = pl.Lookup(f.ops)
	}

	// Per-worker private buffers come from the workspace arenas, hoisted
	// out of the timed phases exactly as a C implementation would hoist
	// them out of the benchmark loop. Every KRP buffer is sized to worker
	// 0's block, the widest. Worker 0 accumulates directly into dst. A plan
	// hit needs neither KRP buffers nor iterators: workers read the plan's
	// rows.
	_, hi0 := parallel.BlockRange(other, t, 0)
	if f.planK.Data == nil {
		for len(f.its) < t {
			f.its = append(f.its, krp.Iter{})
		}
	}
	for w := 0; w < t; w++ {
		ar := ws.Arena(w)
		if f.planK.Data == nil {
			f.kBufs = append(f.kBufs, arenaMat(ar, "core.1s.k", hi0, c))
		}
		mb := dst
		if w > 0 {
			mb = arenaMat(ar, "core.1s.m", in, c)
		}
		f.mBufs = append(f.mBufs, mb)
		f.parts = append(f.parts, mb.Data[:in*c])
	}
	f.ws = ws
	f.bd = bd

	totalW := startWatch()
	f.baseKRP = bd.Get(PhaseFullKRP)
	f.baseGEMM = bd.Get(PhaseGEMM)
	p.Run(t, f.worker)

	sw := startWatch()
	p.ReduceSum(t, f.parts)
	bd.add(PhaseReduce, sw.elapsed())
	bd.addTotal(totalW.elapsed())
	f.release()
	ws.Release()
	return dst
}

// oneStepIntFrame is the workspace-cached state of the internal-mode
// kernel.
type oneStepIntFrame struct {
	x        *tensor.Dense
	n        int
	classIn  int // GEMM size-class rows: the full mode-n extent when tiled
	rightOps []mat.View
	leftOps  []mat.View
	kl       mat.View
	planKR   mat.View // prebuilt right KRP (batch fusion); zero = form rows locally
	kBufs    []mat.View
	mBufs    []mat.View
	rowBufs  [][]float64
	idxBufs  [][]int
	parts    [][]float64
	ws       *parallel.Workspace
	bd       *Breakdown
	baseKRP  time.Duration
	baseGEMM time.Duration
	worker   func(w, lo, hi int)
}

func newOneStepIntFrame() any {
	f := &oneStepIntFrame{}
	f.worker = f.runWorker
	return f
}

//mttkrp:noalloc
func (f *oneStepIntFrame) runWorker(w, lo, hi int) {
	ar := f.ws.Arena(w)
	var dKRP, dGEMM time.Duration
	for j := lo; j < hi; j++ {
		sw := startWatch()
		// K_R(j, :) then the block's KRP rows K_t = K_R(j,:) ⊙ K_L.
		var row []float64
		if f.planKR.Data != nil {
			row = f.planKR.ContiguousRow(j)
		} else {
			row = f.rowBufs[w]
			krp.RowAtInto(f.rightOps, j, row, f.idxBufs[w])
		}
		krp.HadamardExpand(row, f.kl, f.kBufs[w])
		dKRP += sw.elapsed()

		sw = startWatch()
		blas.GemmArenaClass(ar, f.classIn, 1, f.x.ModeBlock(f.n, j), f.kBufs[w], 1, f.mBufs[w])
		dGEMM += sw.elapsed()
	}
	f.bd.addMax(PhaseLRKRP, f.baseKRP, dKRP)
	f.bd.addMax(PhaseGEMM, f.baseGEMM, dGEMM)
}

func (f *oneStepIntFrame) release() {
	f.rightOps = clearViews(f.rightOps)
	f.leftOps = clearViews(f.leftOps)
	f.kBufs = clearViews(f.kBufs)
	f.mBufs = clearViews(f.mBufs)
	for i := range f.parts {
		f.parts[i] = nil
	}
	f.parts = f.parts[:0]
	f.rowBufs = f.rowBufs[:0]
	f.idxBufs = f.idxBufs[:0]
	f.kl = mat.View{}
	f.planKR = mat.View{}
	f.x = nil
	f.ws = nil
	f.bd = nil
}

func oneStepInternal(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	opts.notifyPhase() // kernel entry is a phase boundary: budget changes land here
	c := rank(u)
	in := x.Dim(n)
	il := x.SizeLeft(n)
	nblk := x.NumModeBlocks(n)
	bd := opts.Breakdown
	p := opts.pool()
	t := parallel.Clamp(p.Effective(opts.Threads), nblk)
	ws := p.Acquire()
	f := ws.Frame("core.onestep.int", newOneStepIntFrame).(*oneStepIntFrame)

	f.x, f.n = x, n
	f.classIn = opts.classRows(in)
	f.leftOps = appendLeftOperands(f.leftOps, u, n)
	f.rightOps = appendRightOperands(f.rightOps, u, n)
	var planKL mat.View
	if pl := opts.plan; pl != nil {
		planKL, _ = pl.Lookup(f.leftOps)
		f.planKR, _ = pl.Lookup(f.rightOps)
	}
	if planKL.Data != nil {
		f.kl = planKL
	} else {
		f.kl = arenaMat(ws.Arena(0), "core.1s.kl", il, c)
	}
	clear(dst.Data[:in*c]) // worker 0 accumulates into dst with beta = 1
	for w := 0; w < t; w++ {
		ar := ws.Arena(w)
		f.kBufs = append(f.kBufs, arenaMat(ar, "core.1s.k", il, c))
		mb := dst
		if w > 0 {
			mb = arenaMatZero(ar, "core.1s.m", in, c)
		}
		f.mBufs = append(f.mBufs, mb)
		f.parts = append(f.parts, mb.Data[:in*c])
		if f.planKR.Data == nil {
			f.rowBufs = append(f.rowBufs, ar.Float64("core.1s.row", c))
			f.idxBufs = append(f.idxBufs, ar.Ints("core.1s.idx", len(f.rightOps)))
		}
	}
	f.ws = ws
	f.bd = bd

	totalW := startWatch()
	// Left KRP, computed once in parallel (Algorithm 3, line 11) — or
	// taken whole from the batch plan on a hit.
	sw := startWatch()
	if planKL.Data == nil {
		krp.ParallelOn(p, ws, t, f.leftOps, f.kl)
	}
	bd.add(PhaseLRKRP, sw.elapsed())

	f.baseKRP = bd.Get(PhaseLRKRP)
	f.baseGEMM = bd.Get(PhaseGEMM)
	p.For(t, nblk, f.worker)

	sw = startWatch()
	p.ReduceSum(t, f.parts)
	bd.add(PhaseReduce, sw.elapsed())
	bd.addTotal(totalW.elapsed())
	f.release()
	ws.Release()
	return dst
}

package cpd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config controls a CP-ALS run.
type Config struct {
	// Rank is the number of components C (required, ≥ 1).
	Rank int
	// MaxIters bounds the number of ALS sweeps; default 50.
	MaxIters int
	// Tol stops the iteration when the fit improves by less than this
	// between sweeps; default 1e-4 (the Tensor Toolbox default). Set
	// negative to always run MaxIters (benchmarking).
	Tol float64
	// Threads is the worker count for all kernels; 0 = GOMAXPROCS.
	Threads int
	// Method selects the MTTKRP algorithm. The zero value (MethodAuto)
	// runs each dense sweep as one dimension-tree sweep (core.SweepAll):
	// two passes over the tensor instead of N, whose output bits do not
	// depend on the worker count or the lease width. A named method runs
	// that kernel once per mode; MethodTwoStep is the paper's hybrid
	// (1-step for external modes, 2-step for internal), as Figure 7
	// measures it. Sparse tensors run their one kernel per mode and
	// ignore Method, except MethodNaive, which runs against the densified
	// reference.
	Method core.Method
	// BlasOnlyParallel restricts reorder-baseline parallelism to BLAS
	// (Tensor Toolbox fidelity; see core.Options).
	BlasOnlyParallel bool
	// Seed drives the random initial guess; runs are reproducible per
	// seed.
	Seed int64
	// Init optionally supplies the initial factor matrices instead of a
	// random draw (it is cloned, not modified).
	Init *KTensor
	// Breakdown, when non-nil, accumulates MTTKRP phase timings across
	// all iterations (Figure 8 instrumentation).
	Breakdown *core.Breakdown
	// Pool, when non-nil, is the execution context all kernels of the run
	// execute on: a *parallel.Pool (persistent worker team) or a
	// *parallel.Lease (a scheduler-granted slice of a shared team, the
	// serving path); nil uses the process-wide default pool. A full ALS
	// run reuses this one context and its workspaces for every MTTKRP, so
	// sweeps allocate no kernel scratch in steady state. Concurrent
	// decompositions should use one pool or lease each.
	Pool parallel.Executor
	// PhaseNotify, when non-nil, is invoked after every completed ALS (or
	// NNALS) sweep, once any pending worker-budget change on Pool has been
	// applied (parallel.Reconcile runs first). A serving scheduler that
	// resizes a running request's lease relies on these sweep boundaries
	// as the safe points where the change lands; tests and
	// instrumentation can observe the per-sweep granted width here. It
	// runs on the decomposition goroutine and must not dispatch on Pool.
	PhaseNotify func()
}

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 50
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

// Result reports a CP-ALS run.
type Result struct {
	// K is the fitted Kruskal tensor with unit-normalized factor columns.
	K *KTensor
	// Iters is the number of completed ALS sweeps.
	Iters int
	// Fit is 1 − ‖X − Y‖/‖X‖ after the final sweep (1 is exact).
	Fit float64
	// FitHistory holds the fit after each sweep.
	FitHistory []float64
	// IterTimes holds the wall time of each sweep; the Figure 7 benchmark
	// reports their mean.
	IterTimes []time.Duration
}

// MeanIterTime returns the average sweep time.
func (r *Result) MeanIterTime() time.Duration {
	if len(r.IterTimes) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range r.IterTimes {
		s += d
	}
	return s / time.Duration(len(r.IterTimes))
}

// ErrBadRank reports an invalid rank request.
var ErrBadRank = errors.New("cpd: rank must be ≥ 1")

// ALS computes a rank-C CP decomposition of x by alternating least
// squares. x is dense (a mapped *tensor.Map included) or sparse; any other
// layout is an error. Each sweep updates every factor in mode order via
//
//	U_n ← MTTKRP(X, U, n) · (⊛_{k≠n} U_kᵀU_k)†
//
// followed by column normalization, exactly the update of Section 2.2.
// The fit is computed per sweep from cached quantities (the last mode's
// MTTKRP), adding no extra passes over the tensor.
func ALS(x tensor.Interface, cfg Config) (*Result, error) {
	return run(x, cfg, func(k *KTensor, mode int, m, h mat.View, first bool) {
		u := la.PinvSolveGram(h, m)
		normalizeColumns(u, k.Lambda, first)
		k.Factors[mode] = u
	})
}

// updateFunc rewrites factor mode of k from the mode's raw MTTKRP m and
// h = ⊛_{k≠mode} G_k, either in place or by replacing k.Factors[mode];
// first reports the first sweep. It may clobber m.
type updateFunc func(k *KTensor, mode int, m, h mat.View, first bool)

// run is the one CP sweep loop behind ALS and NNALS: per sweep and per
// mode an MTTKRP, the Hadamard product of the other Grams, and update.
// A dense tensor with MethodAuto runs core.SweepAll over the whole sweep;
// a named method or a sparse tensor runs core.Run per mode.
func run(x tensor.Interface, cfg Config, update updateFunc) (*Result, error) {
	cfg = cfg.withDefaults()
	x = tensor.Unwrap(x)
	var norm func(p parallel.Executor, t int) float64
	var xd *tensor.Dense // set for a dense tensor, the layout SweepAll applies to
	switch xt := x.(type) {
	case *tensor.Dense:
		xd, norm = xt, xt.Norm
	case *tensor.Sparse:
		norm = xt.Norm
	default:
		return nil, fmt.Errorf("cpd: unsupported tensor layout %v", x.Layout())
	}
	if cfg.Rank < 1 {
		return nil, ErrBadRank
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("cpd: tensor order %d < 2", x.Order())
	}
	n := x.Order()
	c := cfg.Rank

	// Initial guess.
	var k *KTensor
	if cfg.Init != nil {
		if cfg.Init.Rank() != c || cfg.Init.Order() != n {
			return nil, fmt.Errorf("cpd: init has rank %d order %d, want %d and %d",
				cfg.Init.Rank(), cfg.Init.Order(), c, n)
		}
		for i, u := range cfg.Init.Factors {
			if u.R != x.Dim(i) || u.C != c {
				return nil, fmt.Errorf("cpd: init factor %d is %dx%d, want %dx%d", i, u.R, u.C, x.Dim(i), c)
			}
		}
		k = cfg.Init.Clone()
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed))
		k = RandomKTensor(rng, x.Dims(), c)
	}

	opts := core.Options{
		Threads:          cfg.Threads,
		Breakdown:        cfg.Breakdown,
		BlasOnlyParallel: cfg.BlasOnlyParallel,
		Pool:             cfg.Pool,
		// Every per-mode MTTKRP entry (and SweepAll mode derivation) is a
		// phase boundary: apply any budget change the admission policy
		// issued while the previous region was in flight.
		PhaseNotify: func() { parallel.Reconcile(cfg.Pool) },
	}
	normX := norm(cfg.Pool, cfg.Threads)

	// Per-mode MTTKRP result buffers, reused across sweeps so the hot loop
	// runs on one pool and one workspace set with no steady-state
	// allocation inside the kernels. Each mode needs its own: ALS solves
	// in place and keeps dsts[mode] as the new factor.
	dsts := make([]mat.View, n)
	for i := 0; i < n; i++ {
		dsts[i] = mat.NewDense(x.Dim(i), c)
	}

	// Cache Gram matrices of every factor.
	grams := make([]mat.View, n)
	for i := 0; i < n; i++ {
		grams[i] = gramOn(cfg.Pool, cfg.Threads, k.Factors[i])
	}

	res := &Result{K: k}
	fitOld := 0.0
	mLast := mat.NewDense(x.Dim(n-1), c) // raw MTTKRP of the last mode
	for iter := 0; iter < cfg.MaxIters; iter++ {
		start := time.Now()
		step := func(mode int, m mat.View) {
			if mode == n-1 {
				mLast.CopyFrom(m) // keep for the fit before update clobbers it
			}
			update(k, mode, m, hadamardOfGramsExcept(grams, mode, c), iter == 0)
			grams[mode] = gramOn(cfg.Pool, cfg.Threads, k.Factors[mode])
		}
		if xd != nil && cfg.Method == core.MethodAuto {
			core.SweepAll(xd, k.Factors, dsts, opts, step)
		} else {
			for mode := 0; mode < n; mode++ {
				step(mode, core.Run(core.Request{
					X: x, Factors: k.Factors, Mode: mode, Method: cfg.Method,
					Dst: dsts[mode], Opts: opts,
				}))
			}
		}
		res.IterTimes = append(res.IterTimes, time.Since(start))
		res.Iters = iter + 1

		// Sweep boundary: the lease-rebalancing safe point. Apply any
		// pending Resize from the admission policy, then let observers see
		// the reconciled width.
		parallel.Reconcile(cfg.Pool)
		if cfg.PhaseNotify != nil {
			cfg.PhaseNotify()
		}

		fit := computeFit(normX, k, grams, mLast)
		res.FitHistory = append(res.FitHistory, fit)
		res.Fit = fit
		if cfg.Tol > 0 && iter > 0 && math.Abs(fit-fitOld) < cfg.Tol {
			break
		}
		fitOld = fit
	}
	return res, nil
}

// hadamardOfGramsExcept returns H = ⊛_{k≠mode} G_k (C×C).
func hadamardOfGramsExcept(grams []mat.View, mode, c int) mat.View {
	h := onesMatrix(c)
	for i, g := range grams {
		if i != mode {
			hadamardInPlace(h, g)
		}
	}
	return h
}

// normalizeColumns rescales the columns of u into lambda: 2-norms on the
// first sweep, max(|·|, 1) afterwards — the Tensor Toolbox convention,
// which avoids driving factor entries to zero on late sweeps.
func normalizeColumns(u mat.View, lambda []float64, firstIter bool) {
	for c := 0; c < u.C; c++ {
		col := u.Col(c)
		var s float64
		if firstIter {
			s = blas.Nrm2(col)
		} else {
			s = math.Abs(col.At(blas.IAmax(col)))
			if s < 1 {
				s = 1
			}
		}
		lambda[c] = s
		if s != 0 {
			blas.Scal(1/s, col)
		}
	}
}

// computeFit evaluates 1 − ‖X−Y‖/‖X‖ from cached quantities:
// ‖Y‖² = λᵀ(⊛ G_k)λ and ⟨X, Y⟩ = Σ_c λ_c Σ_i M(i,c)·U_{N-1}(i,c), where M
// is the raw MTTKRP of the last updated mode.
func computeFit(normX float64, k *KTensor, grams []mat.View, mLast mat.View) float64 {
	c := k.Rank()
	h := onesMatrix(c)
	for _, g := range grams {
		hadamardInPlace(h, g)
	}
	normY2 := 0.0
	for i := 0; i < c; i++ {
		for j := 0; j < c; j++ {
			normY2 += k.Lambda[i] * h.At(i, j) * k.Lambda[j]
		}
	}
	last := k.Factors[len(k.Factors)-1]
	iprod := 0.0
	for cc := 0; cc < c; cc++ {
		iprod += k.Lambda[cc] * blas.Dot(mLast.Col(cc), last.Col(cc))
	}
	res2 := normX*normX + normY2 - 2*iprod
	if res2 < 0 {
		res2 = 0
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(res2)/normX
}

// ReferenceALS runs CP-ALS the way the Matlab Tensor Toolbox comparator of
// Figure 7 does: the Bader–Kolda explicit-reorder MTTKRP with parallelism
// only inside the BLAS call.
func ReferenceALS(x *tensor.Dense, cfg Config) (*Result, error) {
	cfg.Method = core.MethodReorder
	cfg.BlasOnlyParallel = true
	return ALS(x, cfg)
}

// Package tucker implements the Tucker decomposition of dense tensors via
// higher-order orthogonal iteration (HOOI), built entirely on the
// no-reorder substrates of this library: blocked TTM chains (package ttm)
// for the mode contractions and Gram-matrix eigendecompositions for the
// factor updates. Tucker is the computation for which Austin et al. [5]
// and Li et al. [14] developed the layout techniques the paper's 1-step
// MTTKRP reuses, so it doubles as an end-to-end exercise of that
// substrate.
package tucker

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/blas"
	"repro/internal/la"
	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// Model is a Tucker decomposition X ≈ G ×₀ U₀ ×₁ U₁ ⋯: a small core
// tensor G of the given ranks and one column-orthonormal factor per mode.
type Model struct {
	Core    *tensor.Dense
	Factors []mat.View
}

// Ranks returns the core dimensions.
func (m *Model) Ranks() []int { return m.Core.Dims() }

// Full reconstructs the dense tensor G ×₀ U₀ ⋯ ×_{N-1} U_{N-1}.
func (m *Model) Full(t int) *tensor.Dense {
	y := m.Core
	for n, u := range m.Factors {
		// Multiply expects the transposed convention Y_(n) = Mᵀ·X_(n), so
		// expanding by U means contracting with Uᵀ.
		y = ttm.Multiply(nil, t, y, n, u.T())
	}
	return y
}

// Config controls HOOI.
type Config struct {
	// Ranks holds the per-mode core dimensions (required).
	Ranks []int
	// MaxIters bounds HOOI sweeps; default 25.
	MaxIters int
	// Tol stops when the fit improves by less than this; default 1e-6.
	Tol float64
	// Threads is the worker count for TTMs and Grams.
	Threads int
	// Seed is reserved for randomized variants; HOSVD init is
	// deterministic.
	Seed int64
}

// Result reports a HOOI run.
type Result struct {
	Model *Model
	Iters int
	// Fit is 1 − ‖X − X̂‖/‖X‖.
	Fit        float64
	FitHistory []float64
}

// Decompose computes a Tucker model of x by HOSVD initialization followed
// by HOOI sweeps. Factors stay column-orthonormal throughout, so the core
// norm equals the projected energy and the fit needs no extra tensor pass.
func Decompose(x *tensor.Dense, cfg Config) (*Result, error) {
	n := x.Order()
	if len(cfg.Ranks) != n {
		return nil, fmt.Errorf("tucker: %d ranks for an order-%d tensor", len(cfg.Ranks), n)
	}
	ranks := make([]int, n)
	for k, r := range cfg.Ranks {
		if r < 1 {
			return nil, errors.New("tucker: ranks must be ≥ 1")
		}
		ranks[k] = r
		if ranks[k] > x.Dim(k) {
			ranks[k] = x.Dim(k) // cannot exceed the mode dimension
		}
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 25
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-6
	}
	t := cfg.Threads

	// HOSVD init: factor n spans the top eigenvectors of X_(n)·X_(n)ᵀ.
	factors := make([]mat.View, n)
	for k := 0; k < n; k++ {
		factors[k] = leadingEigvecs(t, gramOfMode(t, x, k), ranks[k])
	}

	normX := x.Norm(nil, t)
	res := &Result{}
	fitOld := 0.0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		for k := 0; k < n; k++ {
			// Y = X ×_{m≠k} U_mᵀ, then U_k = top-r_k eigvecs of Y_(k)Y_(k)ᵀ.
			ms := make([]mat.View, n)
			for m := 0; m < n; m++ {
				if m != k {
					ms[m] = factors[m]
				}
			}
			y := ttm.Chain(nil, t, x, ms)
			factors[k] = leadingEigvecs(t, gramOfMode(t, y, k), ranks[k])
		}
		// Core and fit: G = X ×₀ U₀ᵀ ⋯; ‖X−X̂‖² = ‖X‖² − ‖G‖² for
		// orthonormal factors.
		core := ttm.Chain(nil, t, x, factors)
		res.Model = &Model{Core: core, Factors: cloneAll(factors)}
		res.Iters = iter + 1
		res.Fit = fitFromCore(normX, core.Norm(nil, t))
		res.FitHistory = append(res.FitHistory, res.Fit)
		if iter > 0 && math.Abs(res.Fit-fitOld) < cfg.Tol {
			break
		}
		fitOld = res.Fit
	}
	return res, nil
}

// HOSVD computes the one-shot truncated higher-order SVD (the
// initialization of HOOI, also a useful compressor by itself).
func HOSVD(x *tensor.Dense, ranks []int, t int) (*Model, error) {
	res, err := Decompose(x, Config{Ranks: ranks, MaxIters: 1, Tol: -1, Threads: t})
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

func fitFromCore(normX, normG float64) float64 {
	if normX == 0 {
		return 1
	}
	res2 := normX*normX - normG*normG
	if res2 < 0 {
		res2 = 0
	}
	return 1 - math.Sqrt(res2)/normX
}

// gramOfMode accumulates G = X_(n)·X_(n)ᵀ over the mode's row-major
// blocks, without reordering entries.
func gramOfMode(t int, x *tensor.Dense, n int) mat.View {
	in := x.Dim(n)
	g := mat.NewDense(in, in)
	for j := 0; j < x.NumModeBlocks(n); j++ {
		blk := x.ModeBlock(n, j)
		blas.Gemm(t, 1, blk, blk.T(), 1, g)
	}
	return g
}

// leadingEigvecs returns the top-r eigenvectors (by eigenvalue) of a
// symmetric PSD matrix as the columns of an orthonormal matrix.
func leadingEigvecs(t int, g mat.View, r int) mat.View {
	_ = t
	w, v := la.JacobiEigen(g)
	order := make([]int, len(w))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	out := mat.NewDense(g.R, r)
	for c := 0; c < r; c++ {
		blas.CopyVec(v.Col(order[c]), out.Col(c))
	}
	return out
}

func cloneAll(ms []mat.View) []mat.View {
	out := make([]mat.View, len(ms))
	for i, m := range ms {
		out[i] = m.Clone()
	}
	return out
}

// RandomModel builds a random Tucker model with orthonormal factors
// (test/data generator).
func RandomModel(rng *rand.Rand, dims, ranks []int) *Model {
	factors := make([]mat.View, len(dims))
	for k := range dims {
		factors[k] = la.Orthonormalize(mat.RandomDense(dims[k], ranks[k], rng))
	}
	core := tensor.Random(rng, ranks...)
	return &Model{Core: core, Factors: factors}
}

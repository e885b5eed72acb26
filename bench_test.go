// Go-test benchmarks beside the figure harness: the pool runtime on the
// Figures 5–6 shapes, and the ablation and extension benches called out in
// DESIGN.md. The paper's figures themselves come from one harness,
// internal/bench, driven by cmd/mttkrp-bench; the benchmarks here take
// their tensors from its constructors and time only what the figures do
// not: steady-state allocation, the allocating API, ablations and the
// extensions.
package repro_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/ttm"
	"repro/internal/tucker"
)

var benchThreads = runtime.GOMAXPROCS(0)

// ---------------------------------------------------------------------
// Pool runtime: persistent workers + reusable workspaces on the
// Figures 5–6 tensors.
// ---------------------------------------------------------------------

// benchEntries is the entry count of the Figures 5–6 tensors that the
// runtime and sweep benchmarks time: small enough for `go test -bench=.`
// on a laptop.
const benchEntries = 2e6

// benchPoolThreads is the worker count for the runtime-comparison
// benchmarks: at least 4, so the dispatch machinery is exercised even on
// single-core runners (measuring dispatch overhead under oversubscription
// is still meaningful; the kernels' correctness does not depend on cores).
var benchPoolThreads = max(benchThreads, 4)

// BenchmarkMTTKRPRuntime measures whole MTTKRP calls on the persistent
// pool runtime through the steady-state entry point (retained dst + pool),
// which must report 0 allocs/op. MethodAuto runs 1-step on order 3's
// external modes, the split path on the external modes of orders 4–6, and
// 2-step on the internal modes.
func BenchmarkMTTKRPRuntime(b *testing.B) {
	const c = 25
	for _, order := range []int{3, 4, 5, 6} {
		x, u := bench.EqualDimsProblem(order, benchEntries, c)
		modes := []int{0, order / 2, order - 1} // external, internal, external
		for _, n := range modes {
			b.Run(fmt.Sprintf("N=%d/n=%d/pooled", order, n), func(b *testing.B) {
				pool := parallel.NewPool(benchPoolThreads)
				defer pool.Close()
				dst := mat.NewDense(x.Dim(n), c)
				opts := core.Options{Threads: benchPoolThreads, Pool: pool}
				core.ComputeInto(dst, core.MethodAuto, x, u, n, opts) // warm the workspaces
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.ComputeInto(dst, core.MethodAuto, x, u, n, opts)
				}
			})
		}
	}
}

// BenchmarkMTTKRPAllocVsInto quantifies what the allocating convenience
// API costs relative to the zero-alloc steady-state entry point.
func BenchmarkMTTKRPAllocVsInto(b *testing.B) {
	const c = 25
	x, u := bench.EqualDimsProblem(4, benchEntries, c)
	pool := parallel.NewPool(benchThreads)
	defer pool.Close()
	opts := core.Options{Threads: benchThreads, Pool: pool}
	b.Run("compute-alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Compute(core.MethodAuto, x, u, 0, opts)
		}
	})
	b.Run("compute-into", func(b *testing.B) {
		dst := mat.NewDense(x.Dim(0), c)
		core.ComputeInto(dst, core.MethodAuto, x, u, 0, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.ComputeInto(dst, core.MethodAuto, x, u, 0, opts)
		}
	})
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md Section 6).
// ---------------------------------------------------------------------

// BenchmarkAblationGemmShapes shows why the baseline scales poorly: a
// square GEMM parallelizes over rows, an inner-product-shaped GEMM (tiny
// output, huge K) cannot without K-splitting, which this GEMM — like MKL
// in the paper's analysis — does not do.
func BenchmarkAblationGemmShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"square", 512, 512, 512},
		{"inner-product", 32, 2 << 16, 25},
		{"tall-output", 2 << 16, 32, 25},
	}
	for _, s := range shapes {
		a := mat.RandomDense(s.m, s.k, rng)
		bb := mat.RandomDense(s.k, s.n, rng)
		cc := mat.NewDense(s.m, s.n)
		for _, t := range []int{1, benchThreads} {
			b.Run(fmt.Sprintf("%s/T=%d", s.name, t), func(b *testing.B) {
				flops := 2 * int64(s.m) * int64(s.k) * int64(s.n)
				b.SetBytes(flops) // bytes column ≈ flops for GFLOPS reading
				for i := 0; i < b.N; i++ {
					blas.Gemm(t, 1, a, bb, 0, cc)
				}
			})
		}
	}
}

// BenchmarkAblationTwoStepOrder forces left-first vs right-first on a
// tensor where the selection rule prefers one; the rule should pick the
// faster ordering.
func BenchmarkAblationTwoStepOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	// Mode 1 of 8×64×64×8: I^L = 8 < I^R = 512, so right-first is chosen
	// (multi-TTV cost ∝ I^L). Mode 2: I^L = 512 > I^R = 8 → left-first.
	x := tensor.Random(rng, 8, 64, 64, 8)
	u := make([]mat.View, 4)
	for k := 0; k < 4; k++ {
		u[k] = mat.RandomDense(x.Dim(k), 25, rng)
	}
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=%d/auto", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TwoStep(x, u, n, core.Options{Threads: benchThreads})
			}
		})
		b.Run(fmt.Sprintf("n=%d/left", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TwoStepLeftFirst(x, u, n, core.Options{Threads: benchThreads})
			}
		})
		b.Run(fmt.Sprintf("n=%d/right", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TwoStepRightFirst(x, u, n, core.Options{Threads: benchThreads})
			}
		})
	}
}

// BenchmarkAblationGemmBlocking sweeps the GEMM cache-blocking parameters.
func BenchmarkAblationGemmBlocking(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := mat.RandomDense(768, 768, rng)
	bb := mat.RandomDense(768, 768, rng)
	cc := mat.NewDense(768, 768)
	for _, bl := range []blas.Blocking{
		{}, // defaults
		{MC: 32, KC: 64, NC: 512},
		{MC: 256, KC: 512, NC: 4096},
		{MC: 64, KC: 128, NC: 1024},
	} {
		name := "default"
		if bl.MC != 0 {
			name = fmt.Sprintf("MC=%d,KC=%d,NC=%d", bl.MC, bl.KC, bl.NC)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(2 * 768 * 768 * 768)
			for i := 0; i < b.N; i++ {
				blas.GemmBlocked(benchThreads, 1, a, bb, 0, cc, bl)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Extension benches (DESIGN.md Section 6 extensions).
// ---------------------------------------------------------------------

// BenchmarkExtMultiSweep measures the cross-mode reuse scheme against
// per-mode MTTKRPs for one full ALS sweep (the paper predicts ~2x for 4-way
// tensors; the sweep does 2 tensor passes instead of N).
func BenchmarkExtMultiSweep(b *testing.B) {
	for _, order := range []int{3, 4, 5} {
		x, u := bench.EqualDimsProblem(order, benchEntries, 16)
		dsts := make([]mat.View, order)
		for n := range dsts {
			dsts[n] = mat.NewDense(x.Dim(n), 16)
		}
		noop := func(int, mat.View) {}
		b.Run(fmt.Sprintf("N=%d/per-mode", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for n := 0; n < order; n++ {
					core.ComputeInto(dsts[n], core.MethodAuto, x, u, n, core.Options{Threads: benchThreads})
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/sweep-all", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SweepAll(x, u, dsts, core.Options{Threads: benchThreads}, noop)
			}
		})
	}
}

// BenchmarkExtTTM measures the blocked no-reorder TTM per mode.
func BenchmarkExtTTM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Random(rng, 128, 128, 128)
	for n := 0; n < 3; n++ {
		m := mat.RandomDense(128, 16, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ttm.Multiply(nil, benchThreads, x, n, m)
			}
		})
	}
}

// BenchmarkExtTucker measures a full HOOI decomposition.
func BenchmarkExtTucker(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.Random(rng, 64, 64, 64)
	b.Run("HOOI-64cube-rank8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tucker.Decompose(x, tucker.Config{Ranks: []int{8, 8, 8}, MaxIters: 2, Tol: -1, Threads: benchThreads}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtNNALS measures the nonnegative HALS sweep cost relative to
// unconstrained ALS (should be close: both are MTTKRP-dominated).
func BenchmarkExtNNALS(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.Random(rng, 96, 64, 48)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"ALS", func() error {
			_, err := cpd.ALS(x, cpd.Config{Rank: 12, MaxIters: 1, Tol: -1, Threads: benchThreads})
			return err
		}},
		{"NNALS", func() error {
			_, err := cpd.NNALS(x, cpd.Config{Rank: 12, MaxIters: 1, Tol: -1, Threads: benchThreads})
			return err
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

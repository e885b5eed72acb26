// Benchmark families, one per figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md. Problem sizes here are small
// enough for `go test -bench=.` on a laptop; use cmd/mttkrp-bench for the
// full thread-sweep tables and -paper for paper-sized runs.
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/fmri"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/stream"
	"repro/internal/tensor"
	"repro/internal/ttm"
	"repro/internal/tucker"
)

var benchThreads = runtime.GOMAXPROCS(0)

// ---------------------------------------------------------------------
// Figure 4: Khatri-Rao product — Reuse (Alg. 1) vs Naive vs STREAM.
// ---------------------------------------------------------------------

func BenchmarkFig4KRP(b *testing.B) {
	const c = 25
	const j = 1 << 20 // ~1M output rows
	pool := parallel.NewPool(benchThreads)
	defer pool.Close()
	ws := pool.Acquire()
	defer ws.Release()
	for _, z := range []int{2, 3, 4} {
		per := int(math.Round(math.Pow(float64(j), 1/float64(z))))
		rng := rand.New(rand.NewSource(int64(z)))
		mats := make([]mat.View, z)
		rows := 1
		for i := range mats {
			mats[i] = mat.RandomDense(per, c, rng)
			rows *= per
		}
		out := mat.NewDense(rows, c)
		b.Run(fmt.Sprintf("Z=%d/reuse", z), func(b *testing.B) {
			b.SetBytes(int64(rows) * c * 8)
			for i := 0; i < b.N; i++ {
				krp.ParallelOn(pool, ws, benchThreads, mats, out)
			}
		})
		b.Run(fmt.Sprintf("Z=%d/naive", z), func(b *testing.B) {
			b.SetBytes(int64(rows) * c * 8)
			for i := 0; i < b.N; i++ {
				krp.NaiveParallel(pool, benchThreads, mats, out)
			}
		})
	}
	sb := stream.New(j * c)
	b.Run("STREAM", func(b *testing.B) {
		b.SetBytes(sb.Bytes())
		for i := 0; i < b.N; i++ {
			sb.RunOn(pool, benchThreads)
		}
	})
}

// ---------------------------------------------------------------------
// Figure 5: MTTKRP time across methods, modes and orders.
// ---------------------------------------------------------------------

func fig5Problem(order, c int) (*tensor.Dense, []mat.View) {
	total := 2e6 // entries
	d := int(math.Round(math.Pow(total, 1/float64(order))))
	dims := make([]int, order)
	for i := range dims {
		dims[i] = d
	}
	rng := rand.New(rand.NewSource(int64(order)))
	x := tensor.Random(rng, dims...)
	u := make([]mat.View, order)
	for k, dd := range dims {
		u[k] = mat.RandomDense(dd, c, rng)
	}
	return x, u
}

func BenchmarkFig5MTTKRP(b *testing.B) {
	const c = 25
	for _, order := range []int{3, 4, 5, 6} {
		x, u := fig5Problem(order, c)
		for n := 0; n < order; n++ {
			b.Run(fmt.Sprintf("N=%d/n=%d/1-step", order, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.OneStep(x, u, n, core.Options{Threads: benchThreads})
				}
			})
			if n > 0 && n < order-1 {
				b.Run(fmt.Sprintf("N=%d/n=%d/2-step", order, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						core.TwoStep(x, u, n, core.Options{Threads: benchThreads})
					}
				})
			}
		}
		g := core.NewGemmBaselineFor(x, 0, c)
		b.Run(fmt.Sprintf("N=%d/baseline", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Run(benchThreads, nil)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Pool runtime: persistent workers + reusable workspaces on the
// Figure 4/5 shapes.
// ---------------------------------------------------------------------

// benchPoolThreads is the worker count for the runtime-comparison
// benchmarks: at least 4, so the dispatch machinery is exercised even on
// single-core runners (measuring dispatch overhead under oversubscription
// is still meaningful; the kernels' correctness does not depend on cores).
var benchPoolThreads = max(benchThreads, 4)

// BenchmarkMTTKRPRuntime measures whole MTTKRP calls on the persistent
// pool runtime through the steady-state entry point (retained dst + pool),
// which must report 0 allocs/op.
func BenchmarkMTTKRPRuntime(b *testing.B) {
	const c = 25
	for _, order := range []int{3, 4, 5} {
		x, u := fig5Problem(order, c)
		modes := []int{0, order / 2} // one external, one internal mode
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
	x, u := fig5Problem(4, c)
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

// BenchmarkMTTKRPKRPRuntime is the Figure 4 KRP kernel on the persistent
// pool: the paper's reuse algorithm streaming ~1M output rows.
func BenchmarkMTTKRPKRPRuntime(b *testing.B) {
	const c = 25
	const j = 1 << 20
	for _, z := range []int{2, 3, 4} {
		per := int(math.Round(math.Pow(float64(j), 1/float64(z))))
		rng := rand.New(rand.NewSource(int64(z)))
		mats := make([]mat.View, z)
		rows := 1
		for i := range mats {
			mats[i] = mat.RandomDense(per, c, rng)
			rows *= per
		}
		out := mat.NewDense(rows, c)
		b.Run(fmt.Sprintf("Z=%d/pooled", z), func(b *testing.B) {
			pool := parallel.NewPool(benchPoolThreads)
			defer pool.Close()
			ws := pool.Acquire()
			defer ws.Release()
			krp.ParallelOn(pool, ws, benchPoolThreads, mats, out)
			b.ReportAllocs()
			b.SetBytes(int64(rows) * c * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				krp.ParallelOn(pool, ws, benchPoolThreads, mats, out)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Figure 6: breakdown instrumentation (the breakdown adds timers inside
// the kernels; this measures the instrumented path the figure uses).
// ---------------------------------------------------------------------

func BenchmarkFig6Breakdown(b *testing.B) {
	const c = 25
	x, u := fig5Problem(4, c)
	for _, tc := range []struct {
		name string
		run  func(bd *core.Breakdown)
	}{
		{"1-step/external", func(bd *core.Breakdown) {
			core.OneStep(x, u, 0, core.Options{Threads: benchThreads, Breakdown: bd})
		}},
		{"1-step/internal", func(bd *core.Breakdown) {
			core.OneStep(x, u, 1, core.Options{Threads: benchThreads, Breakdown: bd})
		}},
		{"2-step/internal", func(bd *core.Breakdown) {
			core.TwoStep(x, u, 2, core.Options{Threads: benchThreads, Breakdown: bd})
		}},
		{"reorder", func(bd *core.Breakdown) {
			core.Reorder(x, u, 1, core.Options{Threads: benchThreads, Breakdown: bd})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bd core.Breakdown
			for i := 0; i < b.N; i++ {
				tc.run(&bd)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Figure 7: CP-ALS per-iteration time, ours vs the TTB substitute.
// ---------------------------------------------------------------------

func BenchmarkFig7CPALS(b *testing.B) {
	p := fmri.PaperParams().Scaled(0.12)
	p.Seed = 99
	ds := fmri.GenerateOn(nil, p)
	tensors := []struct {
		name string
		x    *tensor.Dense
	}{{"3D", ds.Linearize3()}, {"4D", ds.Tensor4}}
	for _, tc := range tensors {
		for _, c := range []int{10, 25} {
			b.Run(fmt.Sprintf("%s/C=%d/ours", tc.name, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := cpd.ALS(tc.x, cpd.Config{Rank: c, MaxIters: 1, Tol: -1, Seed: 7, Threads: benchThreads, Method: core.MethodTwoStep})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/C=%d/ttb", tc.name, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := cpd.ReferenceALS(tc.x, cpd.Config{Rank: c, MaxIters: 1, Tol: -1, Seed: 7, Threads: benchThreads})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figure 8: MTTKRP on the application (fMRI-shaped) tensors.
// ---------------------------------------------------------------------

func BenchmarkFig8FMRI(b *testing.B) {
	const c = 25
	p := fmri.PaperParams().Scaled(0.12)
	p.Seed = 99
	ds := fmri.GenerateOn(nil, p)
	for _, tc := range []struct {
		name string
		x    *tensor.Dense
	}{{"3D", ds.Linearize3()}, {"4D", ds.Tensor4}} {
		rng := rand.New(rand.NewSource(5))
		u := make([]mat.View, tc.x.Order())
		for k := 0; k < tc.x.Order(); k++ {
			u[k] = mat.RandomDense(tc.x.Dim(k), c, rng)
		}
		for n := 0; n < tc.x.Order(); n++ {
			b.Run(fmt.Sprintf("%s/n=%d/1-step", tc.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.OneStep(tc.x, u, n, core.Options{Threads: benchThreads})
				}
			})
			if n > 0 && n < tc.x.Order()-1 {
				b.Run(fmt.Sprintf("%s/n=%d/2-step", tc.name, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						core.TwoStep(tc.x, u, n, core.Options{Threads: benchThreads})
					}
				})
			}
		}
	}
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
		x, u := fig5Problem(order, 16)
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

package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simd"
)

// KernelsConfig parameterizes the per-kernel micro-benchmark table.
type KernelsConfig struct {
	// MinTime is the minimum measured wall time per (kernel, impl, size)
	// cell; iteration counts are calibrated to reach it. Default 20ms.
	MinTime time.Duration
	// Out receives OBS commentary lines (may be nil).
	Out func(format string, args ...any)
}

// kernelCase is one benchmarked inner loop: run executes iters calls and
// returns the flop count performed (so GFLOP/s falls out of the clock).
type kernelCase struct {
	name string
	size string
	run  func(impl *simd.Impl, iters int) float64
}

// kernelCases builds the benchmark set over the sizes that matter to
// MTTKRP: rank-sized rows (16), cache-resident vectors (1024), and
// KRP-block-shaped flats.
func kernelCases(rng *rand.Rand) []kernelCase {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	var cases []kernelCase
	for _, n := range []int{16, 1024, 16384} {
		n := n
		x, y, z := mk(n), mk(n), mk(n)
		cases = append(cases,
			kernelCase{"dot", fmt.Sprintf("n=%d", n), func(impl *simd.Impl, iters int) float64 {
				var s float64
				for i := 0; i < iters; i++ {
					s += impl.Dot(x, y)
				}
				kernelSink = s
				return float64(2 * n * iters)
			}},
			kernelCase{"axpy", fmt.Sprintf("n=%d", n), func(impl *simd.Impl, iters int) float64 {
				for i := 0; i < iters; i++ {
					impl.Axpy(1.0000001, x, y)
				}
				return float64(2 * n * iters)
			}},
			kernelCase{"had", fmt.Sprintf("n=%d", n), func(impl *simd.Impl, iters int) float64 {
				for i := 0; i < iters; i++ {
					impl.Had(x, y, z)
				}
				return float64(n * iters)
			}},
			kernelCase{"hadacc", fmt.Sprintf("n=%d", n), func(impl *simd.Impl, iters int) float64 {
				for i := 0; i < iters; i++ {
					impl.HadAcc(x, y, z)
				}
				return float64(2 * n * iters)
			}},
			kernelCase{"add", fmt.Sprintf("n=%d", n), func(impl *simd.Impl, iters int) float64 {
				for i := 0; i < iters; i++ {
					impl.Add(x, y)
				}
				return float64(n * iters)
			}},
			kernelCase{"sumabs", fmt.Sprintf("n=%d", n), func(impl *simd.Impl, iters int) float64 {
				var s float64
				for i := 0; i < iters; i++ {
					s += impl.SumAbs(x)
				}
				kernelSink = s
				return float64(n * iters)
			}},
		)
	}
	for _, kc := range []int{64, 256} {
		kc := kc
		ap, bp := mk(4*kc), mk(4*kc)
		acc := new([16]float64)
		cases = append(cases, kernelCase{"gemm4x4", fmt.Sprintf("kc=%d", kc), func(impl *simd.Impl, iters int) float64 {
			for i := 0; i < iters; i++ {
				impl.Gemm4x4(kc, ap, bp, acc)
			}
			return float64(2 * 16 * kc * iters)
		}})
		ap12 := mk(12 * kc)
		acc12 := new([48]float64)
		cases = append(cases, kernelCase{"gemm12x4", fmt.Sprintf("kc=%d", kc), func(impl *simd.Impl, iters int) float64 {
			for i := 0; i < iters; i++ {
				impl.Gemm12x4(kc, ap12, bp, acc12)
			}
			return float64(2 * 48 * kc * iters)
		}})
	}
	for _, shape := range []struct{ rows, c int }{{40, 16}, {256, 16}} {
		shape := shape
		row := mk(shape.c)
		kl := mk(shape.rows * shape.c)
		out := mk(shape.rows * shape.c)
		cases = append(cases, kernelCase{"hadexpand", fmt.Sprintf("rows=%d c=%d", shape.rows, shape.c), func(impl *simd.Impl, iters int) float64 {
			for i := 0; i < iters; i++ {
				impl.HadExpand(row, kl, out)
			}
			return float64(shape.rows * shape.c * iters)
		}})
	}
	return cases
}

// kernelSink defeats dead-code elimination of benchmarked reductions.
var kernelSink float64

// measure runs one case under one implementation, calibrating the
// iteration count up until the measured time reaches minTime, and returns
// GFLOP/s.
func measure(c kernelCase, impl *simd.Impl, minTime time.Duration) float64 {
	iters := 64
	for {
		start := time.Now()
		flops := c.run(impl, iters)
		elapsed := time.Since(start)
		if elapsed >= minTime {
			return flops / elapsed.Seconds() / 1e9
		}
		grow := 2
		if elapsed < minTime/8 {
			grow = 8
		}
		iters *= grow
	}
}

// Kernels measures every simd kernel under the scalar reference and (when
// the host has one) the vectorized implementation, and tabulates GFLOP/s
// with the vector/scalar speedup per cell. This is the measured basis of
// the EXPERIMENTS.md speedup table and feeds the BENCH_<sha>.json
// artifact via -kernels in mttkrp-bench.
func Kernels(cfg KernelsConfig) (*Table, error) {
	if cfg.MinTime <= 0 {
		cfg.MinTime = 20 * time.Millisecond
	}
	if cfg.Out == nil {
		cfg.Out = func(string, ...any) {}
	}
	scalar := simd.Scalar()
	vector := simd.Vector()
	vecName := "none"
	if vector != nil {
		vecName = vector.Name
	}
	tb := NewTable(
		fmt.Sprintf("Kernel micro-benchmarks — scalar vs %s, GFLOP/s (active dispatch: %s)", vecName, simd.Active().Name),
		"kernel", "size", "scalar GFLOP/s", "vector GFLOP/s", "speedup")

	rng := rand.New(rand.NewSource(7))
	best := 0.0
	bestName := ""
	for _, c := range kernelCases(rng) {
		s := measure(c, scalar, cfg.MinTime)
		if vector == nil {
			tb.Add(c.name, c.size, fmt.Sprintf("%.2f", s), "-", "-")
			continue
		}
		v := measure(c, vector, cfg.MinTime)
		sp := v / s
		if sp > best {
			best, bestName = sp, c.name+" "+c.size
		}
		tb.Add(c.name, c.size, fmt.Sprintf("%.2f", s), fmt.Sprintf("%.2f", v), fmt.Sprintf("%.2fx", sp))
	}
	if vector == nil {
		cfg.Out("OBS: no vectorized implementation on this host; scalar reference only\n")
	} else {
		cfg.Out("OBS: best kernel speedup %.2fx (%s); acceptance floor is 1.5x on a krp-heavy kernel\n", best, bestName)
	}
	return tb, nil
}

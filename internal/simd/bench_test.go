package simd

import (
	"fmt"
	"math/rand"
	"testing"
)

// impls returns the implementations to benchmark: always the scalar
// reference, plus the host's vectorized set when present.
func impls() []*Impl {
	out := []*Impl{Scalar()}
	if v := Vector(); v != nil {
		out = append(out, v)
	}
	return out
}

// BenchmarkKernels times every kernel under every available
// implementation at the sizes that matter to MTTKRP (rank-sized rows and
// KRP-block-sized flats), reporting GFLOP/s so the BENCH_<sha>.json
// artifact tracks the scalar-vs-vector ratio per kernel over time.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		fill(rng, xs)
		return xs
	}
	gflops := func(b *testing.B, flopsPerOp int) {
		b.Helper()
		sec := b.Elapsed().Seconds()
		if sec > 0 {
			b.ReportMetric(float64(flopsPerOp)*float64(b.N)/sec/1e9, "GFLOPS")
		}
	}

	for _, impl := range impls() {
		for _, n := range []int{16, 64, 1024, 16384} {
			x, y, z := mk(n), mk(n), mk(n)
			b.Run(fmt.Sprintf("dot/impl=%s/n=%d", impl.Name, n), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					s += impl.Dot(x, y)
				}
				sink = s
				gflops(b, 2*n)
			})
			b.Run(fmt.Sprintf("axpy/impl=%s/n=%d", impl.Name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.Axpy(1.0000001, x, y)
				}
				gflops(b, 2*n)
			})
			b.Run(fmt.Sprintf("had/impl=%s/n=%d", impl.Name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.Had(x, y, z)
				}
				gflops(b, n)
			})
			b.Run(fmt.Sprintf("hadacc/impl=%s/n=%d", impl.Name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.HadAcc(x, y, z)
				}
				gflops(b, 2*n)
			})
			b.Run(fmt.Sprintf("add/impl=%s/n=%d", impl.Name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.Add(x, y)
				}
				gflops(b, n)
			})
			b.Run(fmt.Sprintf("sumabs/impl=%s/n=%d", impl.Name, n), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					s += impl.SumAbs(x)
				}
				sink = s
				gflops(b, n)
			})
		}

		for _, kc := range []int{64, 256} {
			ap, bp := mk(4*kc), mk(4*kc)
			var acc [16]float64
			b.Run(fmt.Sprintf("gemm4x4/impl=%s/kc=%d", impl.Name, kc), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.Gemm4x4(kc, ap, bp, &acc)
				}
				gflops(b, 2*16*kc)
			})
			ap12 := mk(12 * kc)
			var acc12 [48]float64
			b.Run(fmt.Sprintf("gemm12x4/impl=%s/kc=%d", impl.Name, kc), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.Gemm12x4(kc, ap12, bp, &acc12)
				}
				gflops(b, 2*48*kc)
			})
		}

		// The KRP block expansion at serving-typical rank 16 and a
		// krp-heavy slab (many rows per tensor block).
		for _, shape := range []struct{ rows, c int }{{40, 16}, {256, 16}} {
			row := mk(shape.c)
			kl := mk(shape.rows * shape.c)
			out := mk(shape.rows * shape.c)
			b.Run(fmt.Sprintf("hadexpand/impl=%s/rows=%d/c=%d", impl.Name, shape.rows, shape.c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.HadExpand(row, kl, out)
				}
				gflops(b, shape.rows*shape.c)
			})
		}
	}
}

// sink defeats dead-code elimination of benchmarked reductions.
var sink float64

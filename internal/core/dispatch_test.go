package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/simd"
)

// TestMTTKRPDispatchBitIdentical is the end-to-end half of the simd
// package's bit-identity contract: the full MTTKRP — every method, every
// mode, sequential and parallel — must produce bit-for-bit identical
// results whether the inner loops run through the scalar reference or the
// host's vectorized kernels. This is what lets MTTKRP_NOSIMD=1 serve as a
// drop-in diagnostic switch and keeps CI's scalar leg meaningful.
func TestMTTKRPDispatchBitIdentical(t *testing.T) {
	vec := simd.Vector()
	if vec == nil {
		t.Skip("no vectorized implementation on this host")
	}
	prev := simd.Active()
	defer simd.Use(prev)

	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][]int{{4, 5, 6}, {3, 2, 4, 2, 3}, {13, 9, 4}, {1, 4, 3}} {
		for _, c := range []int{1, 5, 16} {
			x, u := randomProblem(rng, dims, c)
			for n := range dims {
				for _, m := range []Method{MethodOneStep, MethodTwoStep, MethodReorder, MethodNaive} {
					for _, threads := range []int{1, 3} {
						simd.Use(simd.Scalar())
						want := Compute(m, x, u, n, Options{Threads: threads})
						simd.Use(vec)
						got := Compute(m, x, u, n, Options{Threads: threads})
						if !bitIdentical(got, want) {
							t.Fatalf("dims=%v c=%d n=%d method=%v t=%d: scalar and vector MTTKRP differ (max |Δ|=%g)",
								dims, c, n, m, threads, mat.MaxAbsDiff(got, want))
						}
					}
				}
			}
		}
	}
}

// TestBlockedGemmDispatchBitIdentical is the same contract on a shape
// whose GEMMs are large enough for the packed, blocked path, so the FMA
// tiles (simd.Gemm12x4 on whole 12-row groups, simd.Gemm4x4 on leftover
// panels) run under both dispatches, sequential and parallel, untiled and
// cache-tiled. The shapes above all take the small-GEMM path.
func TestBlockedGemmDispatchBitIdentical(t *testing.T) {
	vec := simd.Vector()
	if vec == nil {
		t.Skip("no vectorized implementation on this host")
	}
	prev := simd.Active()
	defer simd.Use(prev)

	rng := rand.New(rand.NewSource(45))
	x, u := randomProblem(rng, []int{29, 12, 10, 9}, 16)
	for n := range u {
		for _, m := range []Method{MethodOneStep, MethodTwoStep} {
			for _, threads := range []int{1, 3} {
				simd.Use(simd.Scalar())
				want := Compute(m, x, u, n, Options{Threads: threads})
				for _, impl := range []*simd.Impl{simd.Scalar(), vec} {
					simd.Use(impl)
					for _, tile := range []int{0, 7} {
						got := Compute(m, x, u, n, Options{Threads: threads, TileRows: tile})
						if !bitIdentical(got, want) {
							t.Fatalf("n=%d method=%v t=%d impl=%s tile=%d: differs from the scalar untiled MTTKRP (max |Δ|=%g)",
								n, m, threads, impl.Name, tile, mat.MaxAbsDiff(got, want))
						}
					}
				}
			}
		}
	}
}

func bitIdentical(a, b mat.View) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

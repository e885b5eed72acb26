package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// stridedCopy returns a copy of v whose row and column strides are both
// above 1 (element (i, j) at 2*(i*C + j)), so GEMMs on it take the
// generic strided packers and write-back.
func stridedCopy(v mat.View) mat.View {
	s := mat.View{Data: make([]float64, 2*v.R*v.C), R: v.R, C: v.C, RS: 2 * v.C, CS: 2}
	s.CopyFrom(v)
	return s
}

// newMatrix allocates an r×c column-major or row-major matrix.
func newMatrix(colMajor bool, r, c int) mat.View {
	if colMajor {
		return mat.NewColMajor(r, c)
	}
	return mat.NewDense(r, c)
}

// TestGemmPackingBitIdentical pins the unit-stride packing and write-back
// paths to the generic strided ones: packing is a pure copy and the
// micro-kernel's accumulation order does not depend on the source layout,
// so every MTTKRP-shaped product must match bit for bit. The size class is
// pinned high so even tiny shapes run the blocked (packed) GEMM.
func TestGemmPackingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const forceBlocked = 1 << 30
	for _, m := range []int{1, 3, 4, 5, 113} {
		for _, n := range []int{1, 4, 25} {
			for _, k := range []int{1, 255, 256, 257, 1000} {
				b := mat.RandomDense(k, n, rng)
				bRef := stridedCopy(b)
				for _, aColMajor := range []bool{true, false} {
					a := newMatrix(aColMajor, m, k)
					a.Randomize(rng)
					aRef := stridedCopy(a)
					for _, cColMajor := range []bool{false, true} {
						c0 := newMatrix(cColMajor, m, n)
						c0.Randomize(rng)
						for _, alpha := range []float64{1, 1.5} {
							for _, bl := range []Blocking{{}, {MC: 8, KC: 64, NC: 8}} {
								want := stridedCopy(c0)
								gemmBlockedOnClass(nil, 1, forceBlocked, alpha, aRef, bRef, 1, want, bl)
								for _, threads := range []int{1, 2} {
									got := newMatrix(cColMajor, m, n)
									got.CopyFrom(c0)
									gemmBlockedOnClass(nil, threads, forceBlocked, alpha, a, b, 1, got, bl)
									for i := 0; i < m; i++ {
										for j := 0; j < n; j++ {
											if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
												t.Fatalf("m=%d n=%d k=%d A col-major=%v C col-major=%v alpha=%v blocking=%+v threads=%d: C(%d,%d) = %v, strided reference %v",
													m, n, k, aColMajor, cColMajor, alpha, bl, threads, i, j, g, w)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkGemmMTTKRPShapes times single-worker GEMMs with the four operand
// layouts the cp-fmri CP-ALS sweep (113×30×100×100, rank 25) issues,
// each scaled to about 10^8 flops (about 10 ms on one AVX2 core):
//
//   - 1step-mode0: X_(0) column-major times a row-major KRP block into
//     a row-major output;
//   - 1step-modeN: X_(N-1) row-major times a KRP block into a row-major
//     output;
//   - 2step-right: X_(0:n) column-major times K_R into the column-major
//     intermediate;
//   - 2step-left: X_(0:n-1)ᵀ row-major times K_L into the column-major
//     intermediate.
func BenchmarkGemmMTTKRPShapes(b *testing.B) {
	const rank = 25
	cases := []struct {
		name                 string
		m, k                 int
		aColMajor, cColMajor bool // else row-major
	}{
		{"1step-mode0", 113, 16384, true, false},
		{"1step-modeN", 100, 20000, false, false},
		{"2step-right", 3390, 600, true, true},
		{"2step-left", 600, 3390, false, true},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/m=%d/k=%d", tc.name, tc.m, tc.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a := newMatrix(tc.aColMajor, tc.m, tc.k)
			a.Randomize(rng)
			kr := mat.RandomDense(tc.k, rank, rng)
			c := newMatrix(tc.cColMajor, tc.m, rank)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(1, 1, a, kr, 0, c)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(2*float64(tc.m*tc.k*rank)*float64(b.N)/sec/1e9, "GFLOPS")
			}
		})
	}
}

package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
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

// gemmShape is one (m, n, k) product of a bit-identity sweep.
type gemmShape struct{ m, n, k int }

// crossShapes returns every (m, n, k) of the given lists, m outermost.
func crossShapes(ms, ns, ks []int) []gemmShape {
	var out []gemmShape
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				out = append(out, gemmShape{m, n, k})
			}
		}
	}
	return out
}

// superBlockShapes are the shapes that put the in-place path's seams
// under the bit-identity pins: k below, at and past the default B
// super-block (1024 deep at n = 25, 1792 at n = 16 once m ≥ 112), and
// m = 12–23, which leaves every count 0–11 of packed rows after a whole
// in-place group.
func superBlockShapes() []gemmShape {
	var ms []int
	for m := 12; m <= 23; m++ {
		ms = append(ms, m)
	}
	out := crossShapes(ms, []int{16, 25}, []int{257, 1025})
	return append(out, crossShapes([]int{113, 130}, []int{16, 25}, []int{1023, 1024, 1025, 2049})...)
}

// TestGemmPackingBitIdentical pins the in-place, unit-stride packing and
// write-back paths to the generic strided ones: packing is a pure copy,
// the in-place tiles read the same entries, and no tile's accumulation
// order depends on the source layout, so every MTTKRP-shaped product must
// match bit for bit. Even tiny shapes run the blocked (packed) GEMM; the
// strided reference packs every row.
func TestGemmPackingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := crossShapes([]int{1, 3, 4, 5, 8, 12, 13, 24, 113}, []int{1, 4, 25}, []int{1, 255, 256, 257, 1000})
	for _, sh := range append(shapes, superBlockShapes()...) {
		m, n, k := sh.m, sh.n, sh.k
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
						gemmOn(nil, 1, false, alpha, aRef, bRef, 1, want, bl)
						for _, threads := range []int{1, 2, 3} {
							got := newMatrix(cColMajor, m, n)
							got.CopyFrom(c0)
							gemmOn(nil, threads, false, alpha, a, b, 1, got, bl)
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

// BenchmarkGemmMTTKRPShapes times single-worker GEMMs with the operand
// layouts of the cp-fmri CP-ALS problem (113×30×100×100, rank 25) and of
// the served workloads (rank 16). The first four are cp-fmri's per-mode
// kernels' layouts, each scaled to about 10^8 flops (about 10 ms on one
// AVX2 core):
//
//   - 1step-mode0: X_(0) column-major times a row-major KRP block into
//     a row-major output;
//   - 1step-modeN: X_(N-1) row-major times a KRP block into a row-major
//     output;
//   - 2step-right: X_(0:n) column-major times K_R into the column-major
//     intermediate;
//   - 2step-left: X_(0:n-1)ᵀ row-major times K_L into the column-major
//     intermediate.
//
// The next two are the two GEMMs each SweepAll sweep issues on cp-fmri,
// at full size (1.7·10^9 flops each):
//
//   - sweep-right: X_(0:1) column-major times K_R (m=3390, k=10000) into
//     the column-major intermediate;
//   - sweep-left: X_(0:1)ᵀ row-major times K_L (m=10000, k=3390) into
//     the column-major intermediate.
//
// The last four are GEMMs the served requests issue at rank 16:
//
//   - byref-4way-right: the 32×32×32×40 tensor's right half step, X_(0:1)
//     column-major (m=1024, k=1280, column stride 1024) into the
//     column-major intermediate;
//   - byref-1step-mode0: a 1-step worker's X_(0) block of the
//     128×128×80 tensor (m=128, k=10240, column stride 128) into a
//     row-major output;
//   - byref-2step: a row-major X_(0:1)ᵀ of the 128×128×80 tensor
//     (m=10240, k=128) into the column-major intermediate;
//   - payload-small-mode1: a row-major A of the 48×40×36 tensor
//     (m=1440, k=48) into the column-major intermediate.
func BenchmarkGemmMTTKRPShapes(b *testing.B) {
	cases := []struct {
		name                 string
		m, k, n              int
		aColMajor, cColMajor bool // else row-major
	}{
		{"1step-mode0", 113, 16384, 25, true, false},
		{"1step-modeN", 100, 20000, 25, false, false},
		{"2step-right", 3390, 600, 25, true, true},
		{"2step-left", 600, 3390, 25, false, true},
		{"sweep-right", 3390, 10000, 25, true, true},
		{"sweep-left", 10000, 3390, 25, false, true},
		{"byref-4way-right", 1024, 1280, 16, true, true},
		{"byref-1step-mode0", 128, 10240, 16, true, false},
		{"byref-2step", 10240, 128, 16, false, true},
		{"payload-small-mode1", 1440, 48, 16, false, true},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/m=%d/k=%d", tc.name, tc.m, tc.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a := newMatrix(tc.aColMajor, tc.m, tc.k)
			a.Randomize(rng)
			kr := mat.RandomDense(tc.k, tc.n, rng)
			c := newMatrix(tc.cColMajor, tc.m, tc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(1, 1, a, kr, 0, c)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(2*float64(tc.m*tc.k*tc.n)*float64(b.N)/sec/1e9, "GFLOPS")
			}
		})
	}
}

// TestGemmPackScratchBounded pins the scratch budget of the in-place path:
// on one fresh arena, a packed-path GEMM (m < 12) and then in-place GEMMs
// on the cp-fmri sweep-left shape and on order6's mode-4 half step must
// grow the arena, counted as bytes allocated, by no more than the packed
// path's largest scratch: an MC×KC A block, a KC-deep B block and the
// 12×4 tile. A B super-block sized past that (say, all of k at once)
// would show here first. The operands stay zero: the pin is about
// scratch, and pages never written cost no memory.
func TestGemmPackScratchBounded(t *testing.T) {
	const n = 25
	type operands struct{ a, b, c mat.View }
	var ops []operands
	for _, sh := range []struct{ m, k int }{
		{8, 3390},     // packed: m < 12
		{10000, 3390}, // sweep-left: X_(0:1)ᵀ·K_L
		{160, 64000},  // order6 mode 4: X_(0:3)ᵀ·K_L
	} {
		ops = append(ops, operands{mat.NewDense(sh.m, sh.k), mat.NewDense(sh.k, n), mat.NewColMajor(sh.m, n)})
	}
	bl := Blocking{}.orDefault()
	bound := uint64((bl.MC*bl.KC + bl.KC*roundUp(n, nr) + 3*mr*nr) * 8)
	ar := &parallel.Arena{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range ops {
		GemmArena(ar, 1, o.a, o.b, 0, o.c)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("GEMM scratch grew the arena by %d bytes, packed-path budget %d", grew, bound)
	}
}

package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// gemmRef computes C = alpha*A*B + beta*C with a plain triple loop.
func gemmRef(alpha float64, a, b mat.View, beta float64, c mat.View) {
	for i := 0; i < c.R; i++ {
		for j := 0; j < c.C; j++ {
			s := 0.0
			for p := 0; p < a.C; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func randomView(rng *rand.Rand, r, c int, layout int) mat.View {
	var v mat.View
	switch layout {
	case 0:
		v = mat.NewDense(r, c)
	case 1:
		v = mat.NewColMajor(r, c)
	default:
		// Transposed dense: exercise non-canonical strides.
		v = mat.NewDense(c, r).T()
	}
	v.Randomize(rng)
	return v
}

func TestGemmSmallKnown(t *testing.T) {
	a := mat.FromRowMajor([]float64{1, 2, 3, 4}, 2, 2)
	b := mat.FromRowMajor([]float64{5, 6, 7, 8}, 2, 2)
	c := mat.NewDense(2, 2)
	Gemm(1, 1, a, b, 0, c)
	want := []float64{19, 22, 43, 50}
	for i, v := range c.Data {
		if v != want[i] {
			t.Errorf("C[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestGemmAgainstReferenceAllLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 2, 4}, {4, 4, 4}, {5, 7, 3}, {17, 13, 29},
		{64, 8, 130}, {130, 5, 300}, {33, 65, 257}, {4, 25, 1000},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for la := 0; la < 3; la++ {
			for lb := 0; lb < 3; lb++ {
				for lc := 0; lc < 2; lc++ {
					a := randomView(rng, m, k, la)
					b := randomView(rng, k, n, lb)
					c := randomView(rng, m, n, lc)
					want := c.Clone()
					gemmRef(1.5, a, b, 0.5, want)
					for _, threads := range []int{1, 2, 4} {
						got := c.Clone()
						Gemm(threads, 1.5, a, b, 0.5, got)
						if !mat.ApproxEqual(got, want, 1e-12) {
							t.Fatalf("gemm mismatch m=%d n=%d k=%d layouts=%d%d%d threads=%d: maxdiff %g",
								m, n, k, la, lb, lc, threads, mat.MaxAbsDiff(got, want))
						}
					}
				}
			}
		}
	}
}

func TestGemmBetaZeroOverwritesGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomView(rng, 10, 12, 0)
	b := randomView(rng, 12, 6, 0)
	c := mat.NewDense(10, 6)
	for i := range c.Data {
		c.Data[i] = 1e300 // beta=0 must not propagate this
	}
	Gemm(2, 1, a, b, 0, c)
	want := mat.NewDense(10, 6)
	gemmRef(1, a, b, 0, want)
	if !mat.ApproxEqual(c, want, 1e-12) {
		t.Error("beta=0 did not fully overwrite C")
	}
}

func TestGemmAlphaZeroOnlyScales(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomView(rng, 8, 9, 0)
	b := randomView(rng, 9, 4, 0)
	c := randomView(rng, 8, 4, 0)
	want := c.Clone()
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			want.Set(i, j, 2*want.At(i, j))
		}
	}
	Gemm(1, 0, a, b, 2, c)
	if !mat.ApproxEqual(c, want, 1e-14) {
		t.Error("alpha=0 gemm should only scale C")
	}
}

func TestGemmEmptyDims(t *testing.T) {
	a := mat.NewDense(0, 3)
	b := mat.NewDense(3, 4)
	c := mat.NewDense(0, 4)
	Gemm(2, 1, a, b, 0, c) // must not panic
	a2 := mat.NewDense(3, 0)
	b2 := mat.NewDense(0, 4)
	c2 := mat.NewDense(3, 4)
	c2.Fill(5)
	Gemm(2, 1, a2, b2, 1, c2) // k = 0: C unchanged (beta=1)
	for _, v := range c2.Data {
		if v != 5 {
			t.Fatal("k=0 gemm with beta=1 modified C")
		}
	}
}

func TestGemmDimensionMismatchPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Gemm(1, 1, mat.NewDense(2, 3), mat.NewDense(4, 2), 0, mat.NewDense(2, 2)) },
		func() { Gemm(1, 1, mat.NewDense(2, 3), mat.NewDense(3, 2), 0, mat.NewDense(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGemmTransposedViewsComputeAtB(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomView(rng, 40, 6, 0) // Gram-style: AᵀA
	c := mat.NewDense(6, 6)
	Gemm(2, 1, a.T(), a, 0, c)
	want := mat.NewDense(6, 6)
	gemmRef(1, a.T(), a, 0, want)
	if !mat.ApproxEqual(c, want, 1e-12) {
		t.Error("AᵀA via transposed view is wrong")
	}
	// Result must be symmetric.
	for i := 0; i < 6; i++ {
		for j := 0; j < i; j++ {
			d := c.At(i, j) - c.At(j, i)
			if d > 1e-12 || d < -1e-12 {
				t.Fatal("Gram matrix not symmetric")
			}
		}
	}
}

func TestGemmBlockedCustomBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomView(rng, 50, 70, 0)
	b := randomView(rng, 70, 30, 1)
	want := mat.NewDense(50, 30)
	gemmRef(1, a, b, 0, want)
	for _, bl := range []Blocking{{MC: 8, KC: 16, NC: 8}, {MC: 4, KC: 1, NC: 4}, {MC: 1000, KC: 1000, NC: 1000}} {
		c := mat.NewDense(50, 30)
		GemmBlocked(2, 1, a, b, 0, c, bl)
		if !mat.ApproxEqual(c, want, 1e-12) {
			t.Fatalf("blocking %+v wrong: maxdiff %g", bl, mat.MaxAbsDiff(c, want))
		}
	}
}

// Property test: random shapes, strides, and coefficients agree with the
// reference triple loop.
func TestGemmQuick(t *testing.T) {
	f := func(seed int64, m8, n8, k8, la, lb uint8, alpha, beta float64) bool {
		if alpha != alpha || beta != beta || abs(alpha) > 100 || abs(beta) > 100 {
			return true // skip NaN/huge
		}
		rng := rand.New(rand.NewSource(seed))
		m := int(m8%40) + 1
		n := int(n8%40) + 1
		k := int(k8)%300 + 1
		a := randomView(rng, m, k, int(la%3))
		b := randomView(rng, k, n, int(lb%3))
		c := randomView(rng, m, n, 0)
		want := c.Clone()
		gemmRef(alpha, a, b, beta, want)
		Gemm(2, alpha, a, b, beta, c)
		return mat.ApproxEqual(c, want, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestGemmDeterministicAcrossThreads documents the no-K-split design: each
// output element is accumulated by exactly one worker in a fixed order, so
// results are bitwise identical for every thread count (unlike K-split
// GEMMs, whose reduction order varies).
func TestGemmDeterministicAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomView(rng, 67, 311, 0)
	b := randomView(rng, 311, 23, 1)
	ref := mat.NewDense(67, 23)
	Gemm(1, 1.0, a, b, 0, ref)
	for _, threads := range []int{2, 3, 5, 16} {
		c := mat.NewDense(67, 23)
		Gemm(threads, 1.0, a, b, 0, c)
		for i := range c.Data {
			if c.Data[i] != ref.Data[i] {
				t.Fatalf("threads=%d: element %d differs bitwise (%v vs %v)",
					threads, i, c.Data[i], ref.Data[i])
			}
		}
	}
}

// TestGemmRowGroupingBitIdentical pins that the row grouping never
// changes bits: the blocked GEMM runs 12-row groups through the in-place
// tiles (simd.Gemm12x4ColA, simd.Gemm12x4RowA) and the rows left over
// through the packed simd.Gemm12x4 and simd.Gemm4x4, and splits M into
// worker stripes, but every C element is one FMA chain per KC block in k
// order, the blocks added in order, whichever tile computes it. Dropping
// the first off rows of A moves every later row between in-place groups,
// packed rows and stripes, so its bits must not move.
func TestGemmRowGroupingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := crossShapes([]int{8, 12, 13, 16, 24, 25, 113}, []int{25}, []int{257})
	for _, sh := range append(shapes, superBlockShapes()...) {
		m, n, k := sh.m, sh.n, sh.k
		b := mat.RandomDense(k, n, rng)
		t.Run(fmt.Sprintf("m=%d/n=%d/k=%d", m, n, k), func(t *testing.T) {
			for _, aColMajor := range []bool{true, false} {
				a := newMatrix(aColMajor, m, k)
				a.Randomize(rng)
				for _, cColMajor := range []bool{false, true} {
					for _, bl := range []Blocking{{}, {MC: 20, KC: 64, NC: 8}} {
						ref := newMatrix(cColMajor, m, n)
						gemmOn(nil, 1, false, 1, a, b, 0, ref, bl)
						for _, threads := range []int{1, 2, 3} {
							for _, off := range []int{0, 4, 8} {
								got := newMatrix(cColMajor, m-off, n)
								gemmOn(nil, threads, false, 1, a.Slice(off, m, 0, k), b, 0, got, bl)
								for i := 0; i < m-off; i++ {
									for j := 0; j < n; j++ {
										if g, w := got.At(i, j), ref.At(off+i, j); math.Float64bits(g) != math.Float64bits(w) {
											t.Fatalf("m=%d off=%d A col-major=%v C col-major=%v blocking=%+v threads=%d: C(%d,%d) = %v, full product %v",
												m, off, aColMajor, cColMajor, bl, threads, off+i, j, g, w)
										}
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

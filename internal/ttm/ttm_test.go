package ttm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// multiplyRef computes Y = X ×n M entry by entry from the definition
// Y(..., c, ...) = Σ_i X(..., i, ...)·M(i, c).
func multiplyRef(x *tensor.Dense, n int, m mat.View) *tensor.Dense {
	outDims := x.Dims()
	outDims[n] = m.C
	y := tensor.New(outDims...)
	idx := make([]int, x.Order())
	for l, v := range x.Data() {
		x.MultiIndex(l, idx)
		i := idx[n]
		for c := 0; c < m.C; c++ {
			idx[n] = c
			y.Set(y.At(idx...)+v*m.At(i, c), idx...)
		}
		idx[n] = i
	}
	return y
}

func TestMultiplyMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// A lease narrower than the requested width runs the multiply at its
	// granted width.
	pool := parallel.NewPool(4)
	defer pool.Close()
	lease := pool.Lease(2)
	defer lease.Close()
	for _, dims := range [][]int{{4, 5}, {3, 4, 5}, {2, 3, 4, 3}, {1, 4, 2}, {5, 1, 3}} {
		x := tensor.Random(rng, dims...)
		for n := range dims {
			for _, c := range []int{1, 2, 6} {
				m := mat.RandomDense(dims[n], c, rng)
				want := multiplyRef(x, n, m)
				for _, threads := range []int{1, 2, 4} {
					for on, p := range map[string]parallel.Executor{"nil": nil, "lease of 2": lease} {
						got := Multiply(p, threads, x, n, m)
						if !tensor.ApproxEqual(got, want, 1e-12) {
							t.Errorf("dims=%v n=%d c=%d threads=%d on %s: mismatch %g",
								dims, n, c, threads, on, tensor.MaxAbsDiff(got, want))
						}
					}
				}
			}
		}
	}
}

func TestMultiplyMatchesTensorTTM(t *testing.T) {
	// Cross-check against the reference TTM in package tensor.
	rng := rand.New(rand.NewSource(2))
	x := tensor.Random(rng, 4, 3, 5)
	n := 1
	c := 4
	m := mat.RandomDense(3, c, rng)
	rows := make([][]float64, 3)
	for i := range rows {
		rows[i] = make([]float64, c)
		for j := range rows[i] {
			rows[i][j] = m.At(i, j)
		}
	}
	want := x.TTM(n, rows)
	got := Multiply(nil, 2, x, n, m)
	if !tensor.ApproxEqual(got, want, 1e-12) {
		t.Errorf("ttm.Multiply != tensor.TTM: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestMultiplyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Random(rng, 3, 4, 2)
	for n := 0; n < 3; n++ {
		eye := mat.NewDense(x.Dim(n), x.Dim(n))
		for i := 0; i < x.Dim(n); i++ {
			eye.Set(i, i, 1)
		}
		y := Multiply(nil, 1, x, n, eye)
		if !tensor.ApproxEqual(x, y, 1e-14) {
			t.Errorf("mode %d: X ×n I != X", n)
		}
	}
}

// TTV as a special case: TTM with a 1-column matrix must equal TTV up to
// the kept singleton mode.
func TestMultiplyOneColumnMatchesTTV(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Random(rng, 3, 5, 4)
	n := 1
	v := make([]float64, 5)
	m := mat.NewDense(5, 1)
	for i := range v {
		v[i] = rng.NormFloat64()
		m.Set(i, 0, v[i])
	}
	ttv := x.TTV(n, v)
	ttmOut := Multiply(nil, 1, x, n, m) // dims 3×1×4
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			d := ttv.At(a, b) - ttmOut.At(a, 0, b)
			if d > 1e-12 || d < -1e-12 {
				t.Fatalf("(%d,%d): ttv %v vs ttm %v", a, b, ttv.At(a, b), ttmOut.At(a, 0, b))
			}
		}
	}
}

func TestChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Random(rng, 3, 4, 5)
	ms := []mat.View{
		mat.RandomDense(3, 2, rng),
		{}, // skip mode 1
		mat.RandomDense(5, 3, rng),
	}
	got := Chain(nil, 2, x, ms)
	want := Multiply(nil, 1, Multiply(nil, 1, x, 0, ms[0]), 2, ms[2])
	if !tensor.ApproxEqual(got, want, 1e-12) {
		t.Errorf("chain mismatch %g", tensor.MaxAbsDiff(got, want))
	}
	if got.Dim(0) != 2 || got.Dim(1) != 4 || got.Dim(2) != 3 {
		t.Errorf("chain dims %v", got.Dims())
	}
}

func TestChainAllSkippedIsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Random(rng, 2, 3)
	y := Chain(nil, 1, x, make([]mat.View, 2))
	if y != x {
		t.Error("all-skip chain should return the input tensor")
	}
}

func TestMultiplyPanics(t *testing.T) {
	x := tensor.New(2, 3)
	for i, fn := range []func(){
		func() { Multiply(nil, 1, x, 2, mat.NewDense(2, 2)) },
		func() { Multiply(nil, 1, x, -1, mat.NewDense(2, 2)) },
		func() { Multiply(nil, 1, x, 0, mat.NewDense(3, 2)) },
		func() { Chain(nil, 1, x, make([]mat.View, 3)) },
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

// Property: TTM commutes across distinct modes:
// (X ×0 A) ×2 B = (X ×2 B) ×0 A.
func TestMultiplyCommutesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.Random(rng, rng.Intn(3)+2, rng.Intn(3)+2, rng.Intn(3)+2)
		a := mat.RandomDense(x.Dim(0), rng.Intn(3)+1, rng)
		b := mat.RandomDense(x.Dim(2), rng.Intn(3)+1, rng)
		lhs := Multiply(nil, 1, Multiply(nil, 1, x, 0, a), 2, b)
		rhs := Multiply(nil, 1, Multiply(nil, 1, x, 2, b), 0, a)
		return tensor.ApproxEqual(lhs, rhs, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

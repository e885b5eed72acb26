package cpd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/tensor"
)

func TestCorcondiaPerfectModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, planted := plantedTensor(rng, []int{8, 7, 6}, 3)
	score := Corcondia(2, x, planted)
	if score < 99.9 {
		t.Errorf("corcondia of exact model = %v, want ≈ 100", score)
	}
}

func TestCorcondiaAfterALSFit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, _ := plantedTensor(rng, []int{10, 9, 8}, 2)
	res, err := ALS(x, Config{Rank: 2, MaxIters: 300, Tol: 1e-13, Seed: 5, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.9999 {
		t.Skipf("ALS did not converge tightly (fit %v); corcondia check not meaningful", res.Fit)
	}
	score := Corcondia(2, x, res.K)
	if score < 99 {
		t.Errorf("corcondia of converged exact-rank fit = %v", score)
	}
}

func TestCorcondiaDetectsOverfactoring(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, _ := plantedTensor(rng, []int{10, 9, 8}, 2)
	// Add noise so rank-5 overfactoring fits noise components.
	data := x.Data()
	for i := range data {
		data[i] += 0.05 * rng.NormFloat64()
	}
	good, err := ALS(x, Config{Rank: 2, MaxIters: 100, Tol: 1e-10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	over, err := ALS(x, Config{Rank: 5, MaxIters: 100, Tol: 1e-10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gScore := Corcondia(1, x, good.K)
	oScore := Corcondia(1, x, over.K)
	if oScore >= gScore {
		t.Errorf("overfactored corcondia %v should be below exact-rank %v", oScore, gScore)
	}
}

func TestCorcondiaHandlesNegativeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := RandomKTensor(rng, []int{6, 5, 4}, 2)
	k.Lambda[0] = -2.5
	x := k.Full()
	score := Corcondia(1, x, k)
	if score < 99.9 {
		t.Errorf("corcondia with negative weight = %v, want ≈ 100", score)
	}
}

func TestCorcondiaOrderMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := RandomKTensor(rng, []int{4, 4}, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Corcondia(1, tensor.New(4, 4, 4), k)
}

func TestNVecsEigenvectorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Random(rng, 7, 6, 5)
	for n := 0; n < 3; n++ {
		v := NVecs(2, x, n, 3, rng)
		if v.R != x.Dim(n) || v.C != 3 {
			t.Fatalf("nvecs dims %dx%d", v.R, v.C)
		}
		// Columns are orthonormal eigenvectors of X_(n)X_(n)ᵀ.
		g := mat.NewDense(x.Dim(n), x.Dim(n))
		xn := x.Unfold(nil, 1, n)
		blas.Gemm(1, 1, xn, xn.T(), 0, g)
		gv := mat.NewDense(v.R, v.C)
		blas.Gemm(1, 1, g, v, 0, gv)
		for c := 0; c < 3; c++ {
			col := v.Col(c)
			if d := math.Abs(blas.Nrm2(col) - 1); d > 1e-10 {
				t.Errorf("mode %d col %d not unit norm", n, c)
			}
			// G·v = λ·v for some λ: check collinearity of G·v with v.
			lam := blas.Dot(gv.Col(c), col)
			for i := 0; i < v.R; i++ {
				if diff := math.Abs(gv.At(i, c) - lam*col.At(i)); diff > 1e-8*(1+math.Abs(lam)) {
					t.Errorf("mode %d col %d not an eigenvector (residual %g)", n, c, diff)
				}
			}
		}
	}
}

func TestNVecsEigenvaluesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Random(rng, 6, 5, 4)
	v := NVecs(1, x, 0, 3, rng)
	g := mat.NewDense(6, 6)
	xn := x.Unfold(nil, 1, 0)
	blas.Gemm(1, 1, xn, xn.T(), 0, g)
	gv := mat.NewDense(6, v.C)
	blas.Gemm(1, 1, g, v, 0, gv)
	prev := math.Inf(1)
	for c := 0; c < 3; c++ {
		lam := blas.Dot(gv.Col(c), v.Col(c))
		if lam > prev+1e-9 {
			t.Errorf("eigenvalues not descending: %v after %v", lam, prev)
		}
		prev = lam
	}
}

func TestNVecsOvercompleteFillsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.Random(rng, 3, 8, 8)
	v := NVecs(1, x, 0, 5, rng) // c=5 > I_0=3
	if v.R != 3 || v.C != 5 {
		t.Fatalf("dims %dx%d", v.R, v.C)
	}
	// Extra columns must be populated (nonzero).
	for c := 3; c < 5; c++ {
		if blas.Nrm2(v.Col(c)) == 0 {
			t.Errorf("overcomplete column %d is zero", c)
		}
	}
}

func TestALSWithNVecsInit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, _ := plantedTensor(rng, []int{9, 8, 7}, 2)
	init := NVecsInit(2, x, 2, 1)
	res, err := ALS(x, Config{Rank: 2, MaxIters: 100, Tol: 1e-12, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.999 {
		t.Errorf("nvecs-initialized fit = %v", res.Fit)
	}
	// On noiseless exact-rank data, nvecs should converge at least as fast
	// as a random start in sweeps (usually much faster).
	rnd, err := ALS(x, Config{Rank: 2, MaxIters: 100, Tol: 1e-12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters > rnd.Iters*3 {
		t.Errorf("nvecs took %d sweeps vs random %d", res.Iters, rnd.Iters)
	}
}

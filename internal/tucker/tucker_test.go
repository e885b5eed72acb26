package tucker

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/tensor"
)

func TestHOOIRecoversExactTuckerTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	planted := RandomModel(rng, []int{12, 10, 8}, []int{3, 2, 4})
	x := planted.Full(1)
	res, err := Decompose(x, Config{Ranks: []int{3, 2, 4}, MaxIters: 30, Tol: 1e-12, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.99999 {
		t.Errorf("fit = %v on exactly low-multilinear-rank data", res.Fit)
	}
	back := res.Model.Full(1)
	if !tensor.ApproxEqual(x, back, 1e-8) {
		t.Errorf("reconstruction error %g", tensor.MaxAbsDiff(x, back))
	}
}

func TestHOOIFactorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Random(rng, 9, 8, 7)
	res, err := Decompose(x, Config{Ranks: []int{3, 3, 3}, MaxIters: 5, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	for k, u := range res.Model.Factors {
		for a := 0; a < u.C; a++ {
			for b := 0; b < u.C; b++ {
				dot := blas.Dot(u.Col(a), u.Col(b))
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > 1e-10 {
					t.Fatalf("mode %d: UᵀU(%d,%d) = %v", k, a, b, dot)
				}
			}
		}
	}
}

func TestHOOIFitMatchesExplicitResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Random(rng, 8, 7, 6)
	res, err := Decompose(x, Config{Ranks: []int{4, 3, 2}, MaxIters: 8, Tol: -1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Clone()
	diff.AddScaled(-1, res.Model.Full(1))
	want := 1 - diff.Norm(nil, 1)/x.Norm(nil, 1)
	if math.Abs(res.Fit-want) > 1e-9 {
		t.Errorf("core-based fit %v vs explicit %v", res.Fit, want)
	}
}

func TestHOOIFitNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Random(rng, 10, 9, 8)
	res, err := Decompose(x, Config{Ranks: []int{2, 2, 2}, MaxIters: 12, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.FitHistory); i++ {
		if res.FitHistory[i] < res.FitHistory[i-1]-1e-10 {
			t.Errorf("fit decreased at sweep %d: %v -> %v", i, res.FitHistory[i-1], res.FitHistory[i])
		}
	}
}

func TestHOSVDOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	planted := RandomModel(rng, []int{10, 8, 6}, []int{2, 2, 2})
	x := planted.Full(1)
	m, err := HOSVD(x, []int{2, 2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// HOSVD is exact when the tensor has exact multilinear rank.
	if !tensor.ApproxEqual(x, m.Full(1), 1e-8) {
		t.Error("HOSVD not exact on exact-rank data")
	}
	ranks := m.Ranks()
	if ranks[0] != 2 || ranks[1] != 2 || ranks[2] != 2 {
		t.Errorf("core ranks %v", ranks)
	}
}

func TestRanksClampedToDims(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Random(rng, 3, 8, 8)
	res, err := Decompose(x, Config{Ranks: []int{10, 2, 2}, MaxIters: 2, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Core.Dim(0) != 3 {
		t.Errorf("rank not clamped: core dim %d", res.Model.Core.Dim(0))
	}
}

func TestDecomposeErrors(t *testing.T) {
	x := tensor.New(4, 4)
	if _, err := Decompose(x, Config{Ranks: []int{2}}); err == nil {
		t.Error("rank-count mismatch should fail")
	}
	if _, err := Decompose(x, Config{Ranks: []int{0, 2}}); err == nil {
		t.Error("zero rank should fail")
	}
}

func TestFullRankTuckerIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Random(rng, 4, 5, 3)
	res, err := Decompose(x, Config{Ranks: []int{4, 5, 3}, MaxIters: 1, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 1-1e-10 {
		t.Errorf("full-rank Tucker fit = %v, want 1", res.Fit)
	}
}

func TestCompressionEnergyOrdering(t *testing.T) {
	// Higher ranks must never fit worse.
	rng := rand.New(rand.NewSource(8))
	x := tensor.Random(rng, 10, 10, 10)
	prev := -1.0
	for _, r := range []int{1, 3, 5, 8} {
		res, err := Decompose(x, Config{Ranks: []int{r, r, r}, MaxIters: 6, Tol: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fit < prev-1e-9 {
			t.Errorf("rank %d fit %v below smaller-rank fit %v", r, res.Fit, prev)
		}
		prev = res.Fit
	}
}

func TestOrthonormalHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := RandomModel(rng, []int{7}, []int{4}).Factors[0]
	for a := 0; a < 4; a++ {
		for b := 0; b <= a; b++ {
			dot := blas.Dot(q.Col(a), q.Col(b))
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Fatalf("QᵀQ(%d,%d) = %v", a, b, dot)
			}
		}
	}
}

func TestModelFullDims(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := RandomModel(rng, []int{5, 6, 7}, []int{2, 3, 2})
	y := m.Full(2)
	if y.Dim(0) != 5 || y.Dim(1) != 6 || y.Dim(2) != 7 {
		t.Errorf("full dims %v", y.Dims())
	}
	if m.Factors[0].R != 5 || m.Factors[0].C != 2 {
		t.Errorf("factor dims %dx%d", m.Factors[0].R, m.Factors[0].C)
	}
}

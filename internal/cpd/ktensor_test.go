package cpd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/tensor"
)

func TestKTensorBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := RandomKTensor(rng, []int{3, 4, 5}, 2)
	if k.Rank() != 2 || k.Order() != 3 {
		t.Fatalf("rank %d order %d", k.Rank(), k.Order())
	}
	dims := k.Dims()
	if dims[0] != 3 || dims[1] != 4 || dims[2] != 5 {
		t.Fatalf("dims %v", dims)
	}
	for _, l := range k.Lambda {
		if l != 1 {
			t.Error("random ktensor should have unit weights")
		}
	}
}

func TestNewKTensorValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for rank mismatch")
		}
	}()
	NewKTensor([]float64{1, 2}, []mat.View{mat.NewDense(3, 3)})
}

func TestFullRankOne(t *testing.T) {
	// Y = 2 · a ∘ b with a = (1,2), b = (3,4,5).
	a := mat.FromRowMajor([]float64{1, 2}, 2, 1)
	b := mat.FromRowMajor([]float64{3, 4, 5}, 3, 1)
	k := NewKTensor([]float64{2}, []mat.View{a, b})
	y := k.Full()
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			want := 2 * a.At(i, 0) * b.At(j, 0)
			if got := y.At(i, j); got != want {
				t.Errorf("Y(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestNormSquaredMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][]int{{3, 4}, {2, 3, 4}, {3, 2, 2, 3}} {
		k := RandomKTensor(rng, dims, 3)
		for i := range k.Lambda {
			k.Lambda[i] = rng.NormFloat64()
		}
		want := k.Full().NormSquared(nil, 1)
		got := k.NormSquared()
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("dims=%v: NormSquared = %v, want %v", dims, got, want)
		}
		if math.Abs(k.Norm()-math.Sqrt(want)) > 1e-9 {
			t.Errorf("dims=%v: Norm mismatch", dims)
		}
	}
}

func TestNormalizePreservesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := RandomKTensor(rng, []int{3, 4, 2}, 3)
	for i := range k.Lambda {
		k.Lambda[i] = rng.Float64() + 0.5
	}
	before := k.Full()
	k.Normalize()
	after := k.Full()
	if !tensor.ApproxEqual(before, after, 1e-12) {
		t.Error("Normalize changed the represented tensor")
	}
	for _, u := range k.Factors {
		for c := 0; c < k.Rank(); c++ {
			if n := blas.Nrm2(u.Col(c)); math.Abs(n-1) > 1e-12 {
				t.Errorf("column %d norm %v after normalize", c, n)
			}
		}
	}
}

func TestNormalizeZeroColumn(t *testing.T) {
	f := []mat.View{mat.NewDense(2, 2), mat.NewDense(3, 2)}
	f[0].Set(0, 0, 1)
	f[1].Set(0, 0, 1)
	// Column 1 is all zeros in both factors.
	k := NewKTensor([]float64{5, 5}, f)
	k.Normalize()
	if k.Lambda[1] != 5 {
		t.Errorf("zero column weight changed to %v", k.Lambda[1])
	}
}

func TestArrangeSortsByWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := RandomKTensor(rng, []int{4, 3}, 3)
	k.Lambda = []float64{1, -7, 3}
	before := k.Full()
	k.Arrange()
	want := []float64{-7, 3, 1}
	for i, l := range k.Lambda {
		if l != want[i] {
			t.Errorf("lambda[%d] = %v, want %v", i, l, want[i])
		}
	}
	if !tensor.ApproxEqual(before, k.Full(), 1e-12) {
		t.Error("Arrange changed the represented tensor")
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := RandomKTensor(rng, []int{3, 3}, 2)
	c := k.Clone()
	c.Lambda[0] = 99
	c.Factors[0].Set(0, 0, 99)
	if k.Lambda[0] == 99 || k.Factors[0].At(0, 0) == 99 {
		t.Error("clone aliases original")
	}
}

// Property: Full is linear in lambda.
func TestFullLinearInLambdaQuick(t *testing.T) {
	f := func(seed int64, scale8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := RandomKTensor(rng, []int{3, 2, 2}, 2)
		alpha := float64(scale8%10) + 1
		a := k.Full()
		for i := range k.Lambda {
			k.Lambda[i] *= alpha
		}
		b := k.Full()
		a.AddScaled(-1/alpha, b)
		return a.Norm(nil, 1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

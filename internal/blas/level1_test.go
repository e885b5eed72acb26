package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func vec(xs ...float64) mat.Vec { return mat.FromSlice(xs) }

func TestDot(t *testing.T) {
	if got := Dot(vec(1, 2, 3), vec(4, 5, 6)); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	// Length 5 exercises both the unrolled body and the tail.
	if got := Dot(vec(1, 1, 1, 1, 1), vec(1, 2, 3, 4, 5)); got != 15 {
		t.Errorf("Dot = %v, want 15", got)
	}
	if got := Dot(vec(), vec()); got != 0 {
		t.Errorf("empty Dot = %v, want 0", got)
	}
}

func TestDotStrided(t *testing.T) {
	x := mat.Vec{Data: []float64{1, 0, 2, 0, 3}, N: 3, Inc: 2}
	y := vec(1, 1, 1)
	if got := Dot(x, y); got != 6 {
		t.Errorf("strided Dot = %v, want 6", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dot(vec(1, 2), vec(1))
}

func TestScal(t *testing.T) {
	x := vec(1, 2, 3)
	Scal(3, x)
	if x.Data[0] != 3 || x.Data[2] != 9 {
		t.Errorf("scal wrong: %v", x.Data)
	}
	s := mat.Vec{Data: []float64{1, 100, 2}, N: 2, Inc: 2}
	Scal(2, s)
	if s.Data[0] != 2 || s.Data[2] != 4 || s.Data[1] != 100 {
		t.Errorf("strided scal wrong: %v", s.Data)
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2(vec(3, 4)); math.Abs(got-5) > 1e-15 {
		t.Errorf("Nrm2 = %v, want 5", got)
	}
	if got := Nrm2(vec(0, 0, 0)); got != 0 {
		t.Errorf("Nrm2 of zero = %v", got)
	}
	// Overflow safety: plain sum of squares would overflow.
	big := 1e200
	if got := Nrm2(vec(big, big)); math.Abs(got-big*math.Sqrt2) > 1e186 {
		t.Errorf("Nrm2 overflow-unsafe: %v", got)
	}
}

func TestAsumIAmax(t *testing.T) {
	if got := IAmax(vec(-1, 5, -7, 2)); got != 2 {
		t.Errorf("IAmax = %v, want 2", got)
	}
	if got := IAmax(vec()); got != -1 {
		t.Errorf("IAmax empty = %v, want -1", got)
	}
}

func TestCopyVec(t *testing.T) {
	y := vec(0, 0, 0)
	CopyVec(vec(1, 2, 3), y)
	if y.Data[1] != 2 {
		t.Errorf("copy wrong: %v", y.Data)
	}
	ys := mat.Vec{Data: make([]float64, 6), N: 3, Inc: 2}
	CopyVec(vec(7, 8, 9), ys)
	if ys.Data[0] != 7 || ys.Data[2] != 8 || ys.Data[4] != 9 {
		t.Errorf("strided copy wrong: %v", ys.Data)
	}
}

func TestHad(t *testing.T) {
	z := make([]float64, 5)
	Had([]float64{1, 2, 3, 4, 5}, []float64{2, 2, 2, 2, 2}, z)
	for i, v := range z {
		if v != float64(i+1)*2 {
			t.Errorf("Had[%d] = %v", i, v)
		}
	}
	// In-place use: z aliases x, as in the KRP inner loop.
	x := []float64{1, 2, 3}
	Had(x, []float64{3, 3, 3}, x)
	if x[0] != 3 || x[2] != 9 {
		t.Errorf("in-place Had wrong: %v", x)
	}
}

func TestHadMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Had([]float64{1}, []float64{1, 2}, []float64{0})
}

// Property: Dot is bilinear in its first argument.
func TestDotBilinearQuick(t *testing.T) {
	f := func(seed int64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		n := 17
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := range x {
			x[i], y[i], z[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		ax := make([]float64, n)
		for i := range ax {
			ax[i] = alpha*x[i] + y[i]
		}
		lhs := Dot(mat.FromSlice(ax), mat.FromSlice(z))
		rhs := alpha*Dot(mat.FromSlice(x), mat.FromSlice(z)) + Dot(mat.FromSlice(y), mat.FromSlice(z))
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// strideOut spreads xs into a stride-2 vector over fresh backing storage,
// so unit-stride fast paths can be checked against the strided reference.
func strideOut(xs []float64) mat.Vec {
	data := make([]float64, 2*len(xs))
	for i, v := range xs {
		data[2*i] = v
	}
	return mat.Vec{Data: data, N: len(xs), Inc: 2}
}

// TestUnitStrideFastPaths checks that the unit-stride specializations of
// the reductions (IAmax, Nrm2) agree exactly with the strided reference
// loop on the same values, across lengths that cover every vector tail:
// both run the same sequential recurrence on either path.
func TestUnitStrideFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 100, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			if rng.Intn(11) == 0 {
				xs[i] = 0
			}
		}
		unit, strided := mat.FromSlice(xs), strideOut(xs)
		if got, want := Nrm2(unit), Nrm2(strided); got != want {
			t.Errorf("n=%d: Nrm2 unit %v != strided %v", n, got, want)
		}
		if got, want := IAmax(unit), IAmax(strided); got != want {
			t.Errorf("n=%d: IAmax unit %v != strided %v", n, got, want)
		}
	}
}

// TestIAmaxTies pins the tie-breaking contract: the earliest index of the
// largest magnitude wins, on both the unit-stride and strided paths.
func TestIAmaxTies(t *testing.T) {
	xs := []float64{2, -7, 7, -7, 1}
	if got := IAmax(mat.FromSlice(xs)); got != 1 {
		t.Errorf("IAmax tie unit-stride = %d, want 1", got)
	}
	if got := IAmax(strideOut(xs)); got != 1 {
		t.Errorf("IAmax tie strided = %d, want 1", got)
	}
}

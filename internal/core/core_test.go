package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// randomProblem builds a random tensor and factor set.
func randomProblem(rng *rand.Rand, dims []int, c int) (*tensor.Dense, []mat.View) {
	x := tensor.Random(rng, dims...)
	u := make([]mat.View, len(dims))
	for k, d := range dims {
		u[k] = mat.RandomDense(d, c, rng)
	}
	return x, u
}

var testShapes = [][]int{
	{3, 4},
	{4, 5, 6},
	{2, 3, 4, 5},
	{3, 2, 4, 2, 3},
	{2, 2, 2, 2, 2, 2},
	{1, 4, 3},  // dim-1 leading mode
	{4, 1, 3},  // dim-1 internal mode
	{4, 3, 1},  // dim-1 trailing mode
	{1, 1, 5},  // multiple dim-1 modes
	{7, 1},     // order 2 with dim-1
	{13, 9, 4}, // larger, exercises GEMM blocking
}

func TestOneStepSequentialMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range testShapes {
		for _, c := range []int{1, 3, 7} {
			x, u := randomProblem(rng, dims, c)
			for n := range dims {
				want := Naive(x, u, n)
				got := OneStepSequential(x, u, n, Options{})
				if !mat.ApproxEqual(got, want, 1e-11) {
					t.Errorf("dims=%v n=%d c=%d: 1-step seq mismatch %g", dims, n, c, mat.MaxAbsDiff(got, want))
				}
			}
		}
	}
}

func TestOneStepParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range testShapes {
		x, u := randomProblem(rng, dims, 5)
		for n := range dims {
			want := Naive(x, u, n)
			for _, threads := range []int{1, 2, 3, 8} {
				got := OneStep(x, u, n, Options{Threads: threads})
				if !mat.ApproxEqual(got, want, 1e-11) {
					t.Errorf("dims=%v n=%d threads=%d: 1-step mismatch %g", dims, n, threads, mat.MaxAbsDiff(got, want))
				}
			}
		}
	}
}

func TestTwoStepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range testShapes {
		x, u := randomProblem(rng, dims, 6)
		for n := range dims {
			want := Naive(x, u, n)
			for _, threads := range []int{1, 2, 4} {
				got := TwoStep(x, u, n, Options{Threads: threads})
				if !mat.ApproxEqual(got, want, 1e-11) {
					t.Errorf("dims=%v n=%d threads=%d: 2-step mismatch %g", dims, n, threads, mat.MaxAbsDiff(got, want))
				}
			}
		}
	}
}

// TestTwoStepBothOrderings forces the left-first and right-first paths on
// the same problem; both must agree with the reference regardless of the
// I^L vs I^R selection rule.
func TestTwoStepBothOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// dims chosen so internal modes hit both branches: for n=1, IL=2 <
	// IR=20 (right-first); for n=2, IL=6 > IR=5 (left-first).
	x, u := randomProblem(rng, []int{2, 3, 4, 5}, 4)
	for n := 1; n <= 2; n++ {
		want := Naive(x, u, n)
		left := TwoStepLeftFirst(x, u, n, Options{Threads: 2})
		right := TwoStepRightFirst(x, u, n, Options{Threads: 2})
		if !mat.ApproxEqual(left, want, 1e-11) {
			t.Errorf("n=%d: left-first wrong", n)
		}
		if !mat.ApproxEqual(right, want, 1e-11) {
			t.Errorf("n=%d: right-first wrong", n)
		}
	}
}

func TestReorderMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dims := range testShapes {
		x, u := randomProblem(rng, dims, 5)
		for n := range dims {
			want := Naive(x, u, n)
			got := Reorder(x, u, n, Options{Threads: 2})
			if !mat.ApproxEqual(got, want, 1e-11) {
				t.Errorf("dims=%v n=%d: reorder mismatch %g", dims, n, mat.MaxAbsDiff(got, want))
			}
		}
	}
}

func TestComputeDispatchAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, u := randomProblem(rng, []int{4, 3, 5}, 4)
	for n := 0; n < 3; n++ {
		want := Naive(x, u, n)
		for _, m := range []Method{MethodOneStep, MethodTwoStep, MethodReorder, MethodAuto, MethodNaive} {
			got := Compute(m, x, u, n, Options{Threads: 2})
			if !mat.ApproxEqual(got, want, 1e-11) {
				t.Errorf("method %v mode %d: mismatch", m, n)
			}
		}
	}
}

func TestComputeUnknownMethodPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, u := randomProblem(rng, []int{2, 2}, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Compute(Method(99), x, u, 0, Options{})
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodOneStep: "1-step", MethodTwoStep: "2-step",
		MethodReorder: "reorder", MethodAuto: "auto", MethodNaive: "naive",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Method(42).String() == "" {
		t.Error("unknown method should still stringify")
	}
	if len(Methods()) != 4 {
		t.Errorf("Methods() = %v", Methods())
	}
}

func TestValidationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, u := randomProblem(rng, []int{3, 4, 5}, 4)
	cases := []func(){
		func() { Compute(MethodOneStep, x, u[:2], 0, Options{}) },          // too few factors
		func() { Compute(MethodOneStep, x, u, 3, Options{}) },              // mode out of range
		func() { Compute(MethodOneStep, x, u, -1, Options{}) },             // negative mode
		func() { Naive(tensor.New(5), []mat.View{mat.NewDense(5, 2)}, 0) }, // order-1 tensor
		func() {
			bad := append([]mat.View(nil), u...)
			bad[1] = mat.NewDense(7, 4) // wrong rows
			Compute(MethodOneStep, x, bad, 0, Options{})
		},
		func() {
			bad := append([]mat.View(nil), u...)
			bad[2] = mat.NewDense(5, 9) // wrong cols
			Compute(MethodOneStep, x, bad, 0, Options{})
		},
		func() {
			bad := append([]mat.View(nil), u...)
			bad[0] = mat.NewColMajor(3, 4) // non-unit column stride
			Compute(MethodOneStep, x, bad, 0, Options{})
		},
	}
	for i, fn := range cases {
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

// Property: for random shapes, all four production methods agree on all
// modes and thread counts.
func TestAllMethodsAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Intn(4) + 2
		dims := make([]int, order)
		for i := range dims {
			dims[i] = rng.Intn(5) + 1
		}
		c := rng.Intn(6) + 1
		x, u := randomProblem(rng, dims, c)
		n := rng.Intn(order)
		threads := rng.Intn(4) + 1
		want := Naive(x, u, n)
		for _, m := range Methods() {
			got := Compute(m, x, u, n, Options{Threads: threads})
			if !mat.ApproxEqual(got, want, 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MTTKRP is linear in the tensor argument.
func TestLinearityInTensorQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{3, 4, 2}
		x, u := randomProblem(rng, dims, 3)
		y := tensor.Random(rng, dims...)
		n := rng.Intn(3)
		// M(x + 2y) = M(x) + 2·M(y)
		z := x.Clone()
		z.AddScaled(2, y)
		mz := OneStep(z, u, n, Options{Threads: 2})
		mx := OneStep(x, u, n, Options{Threads: 2})
		my := OneStep(y, u, n, Options{Threads: 2})
		for i := 0; i < mz.R; i++ {
			for j := 0; j < mz.C; j++ {
				d := mz.At(i, j) - (mx.At(i, j) + 2*my.At(i, j))
				if d > 1e-9 || d < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGemmBaselineRuns(t *testing.T) {
	g := NewGemmBaseline(10, 200, 5)
	var bd Breakdown
	g.Run(2, &bd)
	if bd.Get(PhaseGEMM) <= 0 {
		t.Error("baseline recorded no GEMM time")
	}
	if bd.Total() < bd.Get(PhaseGEMM) {
		t.Error("total below GEMM time")
	}
	rng := rand.New(rand.NewSource(10))
	x := tensor.Random(rng, 4, 5, 6)
	g2 := NewGemmBaselineFor(x, 1, 3)
	if g2.a.R != 5 || g2.a.C != 24 || g2.b.C != 3 {
		t.Errorf("baseline dims wrong: %dx%d, %dx%d", g2.a.R, g2.a.C, g2.b.R, g2.b.C)
	}
	g2.Run(1, nil) // nil breakdown must be fine
}

func TestReorderBlasOnlyParallelMatchesNaive(t *testing.T) {
	// The TTB-fidelity mode (single-threaded reorder and KRP, parallel
	// GEMM only) must still be numerically correct.
	rng := rand.New(rand.NewSource(22))
	x, u := randomProblem(rng, []int{6, 5, 4}, 3)
	for n := 0; n < 3; n++ {
		want := Naive(x, u, n)
		got := Reorder(x, u, n, Options{Threads: 3, BlasOnlyParallel: true})
		if !mat.ApproxEqual(got, want, 1e-11) {
			t.Errorf("mode %d: BlasOnlyParallel reorder wrong", n)
		}
	}
}

func TestOneStepSequentialWithBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, u := randomProblem(rng, []int{6, 5, 4}, 3)
	var bd Breakdown
	OneStepSequential(x, u, 1, Options{Breakdown: &bd})
	if bd.Get(PhaseFullKRP) <= 0 || bd.Get(PhaseGEMM) <= 0 {
		t.Errorf("Alg 2 breakdown not populated: %v", &bd)
	}
}

func TestTwoStepForcedOrderExternalPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x, u := randomProblem(rng, []int{3, 3, 3}, 2)
	for i, fn := range []func(){
		func() { TwoStepLeftFirst(x, u, 0, Options{}) },
		func() { TwoStepRightFirst(x, u, 2, Options{}) },
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

package cpd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// plantedTensor builds an exactly rank-C tensor from a random KTensor.
func plantedTensor(rng *rand.Rand, dims []int, c int) (*tensor.Dense, *KTensor) {
	k := RandomKTensor(rng, dims, c)
	return k.Full(), k
}

func TestALSRecoversExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		dims []int
		rank int
	}{
		{[]int{10, 12, 8}, 2},
		{[]int{8, 6, 7, 5}, 3},
		{[]int{20, 15}, 2},
	} {
		x, _ := plantedTensor(rng, tc.dims, tc.rank)
		res, err := ALS(x, Config{Rank: tc.rank, MaxIters: 200, Tol: 1e-12, Seed: 7, Threads: 2})
		if err != nil {
			t.Fatalf("dims=%v: %v", tc.dims, err)
		}
		if res.Fit < 0.9999 {
			t.Errorf("dims=%v rank=%d: fit %v after %d iters, want ≈1", tc.dims, tc.rank, res.Fit, res.Iters)
		}
		// The fitted model must reconstruct the tensor.
		if !tensor.ApproxEqual(res.K.Full(), x, 1e-2) {
			t.Errorf("dims=%v: reconstruction error too large", tc.dims)
		}
	}
}

func TestALSFitMatchesExplicitResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Random(rng, 6, 7, 5)
	res, err := ALS(x, Config{Rank: 3, MaxIters: 10, Tol: -1, Seed: 3, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Explicit: fit = 1 − ‖X − Y‖/‖X‖.
	y := res.K.Full()
	diff := x.Clone()
	diff.AddScaled(-1, y)
	want := 1 - diff.Norm(nil, 1)/x.Norm(nil, 1)
	if math.Abs(res.Fit-want) > 1e-8 {
		t.Errorf("cached fit %v, explicit fit %v", res.Fit, want)
	}
}

func TestALSFitMonotoneOnNoiselessData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, _ := plantedTensor(rng, []int{9, 8, 7}, 2)
	res, err := ALS(x, Config{Rank: 2, MaxIters: 40, Tol: -1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.FitHistory); i++ {
		if res.FitHistory[i] < res.FitHistory[i-1]-1e-9 {
			t.Errorf("fit decreased at sweep %d: %v -> %v", i, res.FitHistory[i-1], res.FitHistory[i])
		}
	}
}

func TestALSAllMethodsConvergeToSameFit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Random(rng, 8, 9, 7)
	fits := make(map[core.Method]float64)
	for _, m := range []core.Method{core.MethodAuto, core.MethodOneStep, core.MethodTwoStep, core.MethodReorder} {
		res, err := ALS(x, Config{Rank: 4, MaxIters: 15, Tol: -1, Seed: 5, Method: m, Threads: 2})
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		fits[m] = res.Fit
	}
	for m, f := range fits {
		if math.Abs(f-fits[core.MethodAuto]) > 1e-8 {
			t.Errorf("method %v fit %v differs from auto %v", m, f, fits[core.MethodAuto])
		}
	}
}

func TestALSDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Random(rng, 6, 6, 6)
	a, _ := ALS(x, Config{Rank: 2, MaxIters: 8, Tol: -1, Seed: 42})
	b, _ := ALS(x, Config{Rank: 2, MaxIters: 8, Tol: -1, Seed: 42})
	if a.Fit != b.Fit {
		t.Error("same seed gave different results")
	}
	c, _ := ALS(x, Config{Rank: 2, MaxIters: 8, Tol: -1, Seed: 43})
	if a.Fit == c.Fit {
		t.Error("different seeds gave identical fit (suspicious)")
	}
}

func TestALSWithProvidedInit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, planted := plantedTensor(rng, []int{8, 7, 6}, 2)
	// Start at the planted solution: one sweep should keep fit ≈ 1.
	res, err := ALS(x, Config{Rank: 2, MaxIters: 2, Tol: -1, Init: planted})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.999999 {
		t.Errorf("fit from planted init = %v", res.Fit)
	}
	// Init must not be mutated.
	if planted.Lambda[0] != 1 {
		t.Error("ALS mutated the provided init")
	}
}

// TestALSErrorCases runs every rejected configuration through ALS; its twin
// TestNNALSConfigErrors runs the same table through NNALS.
func TestALSErrorCases(t *testing.T) {
	checkRejects(t, func(x *tensor.Dense, cfg Config) (*Result, error) { return ALS(x, cfg) })
	rng := rand.New(rand.NewSource(7))
	if _, err := ALS(otherLayout{tensor.Random(rng, 5, 4, 3)}, Config{Rank: 2}); err == nil {
		t.Error("ALS accepted a layout no kernel implements")
	}
}

// checkRejects requires fit to return an error, never panic, on each
// configuration the CP driver rejects.
func checkRejects(t *testing.T, fit func(*tensor.Dense, Config) (*Result, error)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dims := []int{5, 4, 3}
	x := tensor.Random(rng, dims...)
	twoWeights := RandomKTensor(rng, dims, 3)
	twoWeights.Lambda = twoWeights.Lambda[:2] // two weights on 3-column factors
	cases := []struct {
		name string
		x    *tensor.Dense
		cfg  Config
	}{
		{"rank 0", x, Config{Rank: 0}},
		{"order-1 tensor", tensor.New(5), Config{Rank: 2}},
		{"rank-mismatched init", x, Config{Rank: 2, Init: RandomKTensor(rng, dims, 3)}},
		{"order-mismatched init", x, Config{Rank: 2, Init: RandomKTensor(rng, []int{5, 4, 3, 2}, 2)}},
		{"init factor with too few rows", x, Config{Rank: 2, Init: RandomKTensor(rng, []int{5, 4, 2}, 2)}},
		{"init weights and columns disagree", x, Config{Rank: 2, Init: twoWeights}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			if _, err := fit(tc.x, tc.cfg); err == nil {
				t.Errorf("%s: no error", tc.name)
			}
		}()
	}
}

// otherLayout is a tensor whose layout no MTTKRP kernel implements.
type otherLayout struct{ *tensor.Dense }

func (otherLayout) Layout() tensor.Layout { return tensor.LayoutCOO + 1 }

// TestALSSparseMatchesDensified runs ALS on a sparse tensor and on its
// densified copy from the same seed: the two layouts' kernels sum in
// different orders, so the runs agree to rounding, not to the bit.
func TestALSSparseMatchesDensified(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][]int{{14, 12}, {12, 10, 9}, {7, 6, 5, 6}} {
		xs := tensor.RandomSparse(rng, 0.2, dims...)
		cfg := Config{Rank: 3, MaxIters: 5, Tol: -1, Seed: 4, Threads: 2}
		sp, err := ALS(xs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		de, err := ALS(xs.Densify(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range de.FitHistory {
			if math.Abs(sp.FitHistory[i]-de.FitHistory[i]) > 1e-12 {
				t.Errorf("dims=%v sweep %d: sparse fit %v, densified %v", dims, i, sp.FitHistory[i], de.FitHistory[i])
			}
		}
		for k, u := range de.K.Factors {
			for i := 0; i < u.R; i++ {
				for c := 0; c < u.C; c++ {
					if d := math.Abs(sp.K.Factors[k].At(i, c) - u.At(i, c)); d > 1e-10 {
						t.Fatalf("dims=%v factor %d (%d,%d): sparse and densified differ by %g", dims, k, i, c, d)
					}
				}
			}
		}
	}
}

func TestALSEarlyStopOnTol(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, _ := plantedTensor(rng, []int{10, 9, 8}, 1)
	res, err := ALS(x, Config{Rank: 1, MaxIters: 500, Tol: 1e-6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 500 {
		t.Errorf("no early stop: ran %d iters", res.Iters)
	}
	if len(res.IterTimes) != res.Iters || len(res.FitHistory) != res.Iters {
		t.Error("history lengths inconsistent with Iters")
	}
	if res.MeanIterTime() <= 0 {
		t.Error("mean iteration time not recorded")
	}
}

func TestReferenceALSMatchesRegularReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.Random(rng, 7, 6, 5)
	a, err := ReferenceALS(x, Config{Rank: 3, MaxIters: 6, Tol: -1, Seed: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ALS(x, Config{Rank: 3, MaxIters: 6, Tol: -1, Seed: 2, Method: core.MethodReorder, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Fit-b.Fit) > 1e-10 {
		t.Errorf("reference ALS fit %v != reorder ALS fit %v", a.Fit, b.Fit)
	}
}

func TestALSBreakdownAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.Random(rng, 8, 8, 8)
	var bd core.Breakdown
	_, err := ALS(x, Config{Rank: 3, MaxIters: 3, Tol: -1, Threads: 2, Breakdown: &bd})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 || bd.Get(core.PhaseGEMM) <= 0 {
		t.Errorf("breakdown not accumulated: %v", &bd)
	}
}

func TestALSZeroTensor(t *testing.T) {
	x := tensor.New(4, 4, 4) // all zeros
	res, err := ALS(x, Config{Rank: 2, MaxIters: 3, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Fit) {
		t.Error("fit is NaN on zero tensor")
	}
}

func TestALSRankExceedingDimensions(t *testing.T) {
	// Rank larger than every dimension: Grams are singular, exercising the
	// pseudo-inverse fallback path every sweep.
	rng := rand.New(rand.NewSource(11))
	x := tensor.Random(rng, 3, 4, 3)
	res, err := ALS(x, Config{Rank: 6, MaxIters: 8, Tol: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Fit) || res.Fit < 0.5 {
		t.Errorf("overcomplete fit = %v", res.Fit)
	}
}

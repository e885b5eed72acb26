package cpd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

func TestNNALSFactorsStayNonnegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Random(rng, 8, 7, 6) // uniform entries: nonnegative
	res, err := NNALS(x, Config{Rank: 3, MaxIters: 20, Tol: -1, Seed: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k, u := range res.K.Factors {
		for i := 0; i < u.R; i++ {
			for j := 0; j < u.C; j++ {
				if u.At(i, j) < 0 {
					t.Fatalf("factor %d has negative entry %v at (%d,%d)", k, u.At(i, j), i, j)
				}
			}
		}
	}
}

func TestNNALSRecoversNonnegativeLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Planted nonnegative model (RandomKTensor draws uniform [0,1)).
	planted := RandomKTensor(rng, []int{12, 10, 8}, 2)
	x := planted.Full()
	res, err := NNALS(x, Config{Rank: 2, MaxIters: 300, Tol: 1e-12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.999 {
		t.Errorf("fit = %v after %d sweeps on exact nonnegative data", res.Fit, res.Iters)
	}
}

func TestNNALSFitImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Random(rng, 9, 8, 7)
	res, err := NNALS(x, Config{Rank: 4, MaxIters: 15, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.FitHistory[0], res.Fit
	if last < first-1e-9 {
		t.Errorf("fit regressed from %v to %v", first, last)
	}
	// HALS should mostly improve monotonically on this easy problem.
	drops := 0
	for i := 1; i < len(res.FitHistory); i++ {
		if res.FitHistory[i] < res.FitHistory[i-1]-1e-7 {
			drops++
		}
	}
	if drops > 2 {
		t.Errorf("fit dropped %d times: %v", drops, res.FitHistory)
	}
}

func TestNNALSRejectsNegativeTensor(t *testing.T) {
	x := tensor.New(3, 3)
	x.Set(-1, 1, 1)
	if _, err := NNALS(x, Config{Rank: 2}); err == nil {
		t.Error("expected rejection of negative tensor")
	}
}

// TestNNALSConfigErrors runs TestALSErrorCases's table through NNALS.
func TestNNALSConfigErrors(t *testing.T) {
	checkRejects(t, NNALS)
}

func TestNNALSInitProjectsNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Random(rng, 5, 4, 3)
	init := RandomKTensor(rng, []int{5, 4, 3}, 2)
	init.Factors[0].Set(0, 0, -5) // negative entry must be projected away
	res, err := NNALS(x, Config{Rank: 2, MaxIters: 2, Tol: -1, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.K.Factors[0].At(0, 0) < 0 {
		t.Error("negative init entry survived")
	}
	if init.Factors[0].At(0, 0) != -5 {
		t.Error("caller's init was mutated")
	}
}

func TestNNALSFitMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Random(rng, 6, 5, 4)
	res, err := NNALS(x, Config{Rank: 2, MaxIters: 8, Tol: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Clone()
	diff.AddScaled(-1, res.K.Full())
	want := 1 - diff.Norm(nil, 1)/x.Norm(nil, 1)
	if math.Abs(res.Fit-want) > 1e-8 {
		t.Errorf("cached fit %v vs explicit %v", res.Fit, want)
	}
}

// TestNNALSMultiSweep pins that NNALS runs the default dimension-tree
// sweep: the fits match per-mode NNALS, and only the default run records
// the GEMV time of SweepAll's derivations (per-mode 1-step runs no GEMV).
func TestNNALSMultiSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][]int{{12, 11}, {8, 9, 7}, {6, 5, 4, 5}, {5, 4, 3, 4, 3}} {
		x := tensor.Random(rng, dims...)
		var perBD, msBD core.Breakdown
		cfg := Config{Rank: 3, MaxIters: 8, Tol: -1, Seed: 3, Threads: 2, Method: core.MethodOneStep, Breakdown: &perBD}
		per, err := NNALS(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Method, cfg.Breakdown = core.MethodAuto, &msBD
		ms, err := NNALS(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range per.FitHistory {
			if math.Abs(per.FitHistory[i]-ms.FitHistory[i]) > 1e-12 {
				t.Errorf("dims=%v sweep %d: fit %v per-mode, %v default sweep", dims, i, per.FitHistory[i], ms.FitHistory[i])
			}
		}
		if perBD.Get(core.PhaseGEMV) != 0 {
			t.Errorf("dims=%v: per-mode 1-step recorded GEMV time", dims)
		}
		if msBD.Get(core.PhaseGEMV) == 0 {
			t.Errorf("dims=%v: default NNALS recorded no GEMV time: SweepAll did not run", dims)
		}
	}
}

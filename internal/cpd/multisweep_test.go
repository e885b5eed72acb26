package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestMultiSweepMatchesRegularALS pins the default dimension-tree sweep
// against the per-mode kernels a named Method runs: the same MTTKRPs in
// another summation order, so the fits agree to rounding.
func TestMultiSweepMatchesRegularALS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][]int{{8, 9, 7}, {6, 5, 4, 5}, {12, 11}, {5, 4, 3, 4, 3}} {
		x := tensor.Random(rng, dims...)
		tree, err := ALS(x, Config{Rank: 3, MaxIters: 5, Tol: -1, Seed: 4, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []core.Method{core.MethodTwoStep, core.MethodOneStep} {
			per, err := ALS(x, Config{Rank: 3, MaxIters: 5, Tol: -1, Seed: 4, Threads: 2, Method: m})
			if err != nil {
				t.Fatal(err)
			}
			for i := range per.FitHistory {
				if math.Abs(per.FitHistory[i]-tree.FitHistory[i]) > 1e-12 {
					t.Errorf("dims=%v sweep %d: fit %v (%v per mode) vs %v (default sweep)",
						dims, i, per.FitHistory[i], m, tree.FitHistory[i])
				}
			}
		}
	}
}

func TestMultiSweepRecoversExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, _ := plantedTensor(rng, []int{10, 9, 8, 7}, 2)
	res, err := ALS(x, Config{Rank: 2, MaxIters: 200, Tol: 1e-12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.9999 {
		t.Errorf("default sweep fit = %v after %d iters", res.Fit, res.Iters)
	}
}

// TestMultiSweepBreakdown pins that the default dense sweep is the
// dimension tree: its derivations record GEMV time and it forms no full
// Khatri-Rao product.
func TestMultiSweepBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Random(rng, 8, 8, 8)
	var bd core.Breakdown
	res, err := ALS(x, Config{Rank: 3, MaxIters: 3, Tol: -1, Threads: 2, Breakdown: &bd})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != 3 {
		t.Errorf("iter times = %d", len(res.IterTimes))
	}
	if bd.Get(core.PhaseGEMV) <= 0 || bd.Get(core.PhaseFullKRP) != 0 {
		t.Errorf("default sweep breakdown %v: want derivation GEMV time and no full KRP", &bd)
	}
}

// TestALSBitIdenticalAcrossWidths pins dense CP's width invariance: with
// the default sweep, ALS and NNALS return the same FitHistory, λ and
// factor bits on a 1-worker pool, on 2–4 worker pools, with Threads 1–3
// on a 4-worker pool, and on an 8-wide lease shrunk to 3 after sweep 2 and
// restored after sweep 4. The tensor norm runs on the same executor and
// partitions by the tensor's length, not by Threads or the pool.
func TestALSBitIdenticalAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][]int{{14, 12, 10}, {23, 17, 19, 29}, {6, 5, 4, 5, 3}} {
		x := tensor.Random(rng, dims...)
		for _, alg := range []struct {
			name string
			fn   func(*tensor.Dense, Config) (*Result, error)
		}{
			{"ALS", func(x *tensor.Dense, cfg Config) (*Result, error) { return ALS(x, cfg) }},
			{"NNALS", NNALS},
		} {
			solve := func(p parallel.Executor, threads int, notify func()) *Result {
				res, err := alg.fn(x, Config{Rank: 5, MaxIters: 6, Tol: -1, Seed: 9, Pool: p, Threads: threads, PhaseNotify: notify})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			one := parallel.NewPool(1)
			want := solve(one, 0, nil)
			one.Close()
			for w := 2; w <= 4; w++ {
				p := parallel.NewPool(w)
				assertSameBits(t, alg.name, dims, fmt.Sprintf("pool of %d", w), want, solve(p, 0, nil))
				if w == 4 {
					for th := 1; th <= 3; th++ {
						assertSameBits(t, alg.name, dims, fmt.Sprintf("Threads %d on a pool of 4", th), want, solve(p, th, nil))
					}
				}
				p.Close()
			}
			p := parallel.NewPool(8)
			l := p.Lease(8)
			sweeps := 0
			got := solve(l, 0, func() {
				switch sweeps++; sweeps {
				case 2:
					l.Resize(3)
				case 4:
					l.Resize(8)
				}
			})
			l.Close()
			p.Close()
			assertSameBits(t, alg.name, dims, "resized lease", want, got)
		}
	}
}

// assertSameBits fails unless two CP runs agree bit for bit in every fit,
// weight and factor entry.
func assertSameBits(t *testing.T, alg string, dims []int, what string, want, got *Result) {
	t.Helper()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(want.FitHistory, got.FitHistory) {
		t.Errorf("%s dims=%v %s: fits %v, 1 worker %v", alg, dims, what, got.FitHistory, want.FitHistory)
	}
	if !same(want.K.Lambda, got.K.Lambda) {
		t.Errorf("%s dims=%v %s: λ %v, 1 worker %v", alg, dims, what, got.K.Lambda, want.K.Lambda)
	}
	for k := range want.K.Factors {
		if !same(want.K.Factors[k].Data, got.K.Factors[k].Data) {
			t.Errorf("%s dims=%v %s: factor %d differs from the 1-worker run", alg, dims, what, k)
		}
	}
}

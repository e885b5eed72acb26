package core

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// TestEveryIntoEntryPointNotifiesOnce pins the phase-hook contract the
// phasehook analyzer machine-checks: every exported *Into kernel entry
// point reaches Options.PhaseNotify exactly once per computation, whether
// entered directly or through ComputeInto. Before this test, direct entry
// via OneStepInto/TwoStepInto/ReorderInto skipped the notification, so an
// admitted request running against those entry points never gave the
// scheduler a reconcile safe-point.
func TestEveryIntoEntryPointNotifiesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x *tensor.Dense
	var u []mat.View

	entries := []struct {
		name string
		call func(n int, opts Options) mat.View
	}{
		{"OneStepInto", func(n int, opts Options) mat.View {
			return OneStepInto(mat.NewDense(x.Dim(n), 3), x, u, n, opts)
		}},
		{"TwoStepInto", func(n int, opts Options) mat.View {
			return TwoStepInto(mat.NewDense(x.Dim(n), 3), x, u, n, opts)
		}},
		{"ReorderInto", func(n int, opts Options) mat.View {
			return ReorderInto(mat.NewDense(x.Dim(n), 3), x, u, n, opts)
		}},
		{"ComputeInto/OneStep", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodOneStep, x, u, n, opts)
		}},
		{"ComputeInto/TwoStep", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodTwoStep, x, u, n, opts)
		}},
		{"ComputeInto/Reorder", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodReorder, x, u, n, opts)
		}},
		{"ComputeInto/Auto", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodAuto, x, u, n, opts)
		}},
		{"ComputeInto/Naive", func(n int, opts Options) mat.View {
			return ComputeInto(mat.NewDense(x.Dim(n), 3), MethodNaive, x, u, n, opts)
		}},
	}

	// The order-4 tensor's mode 0 takes MethodAuto's split path.
	for _, dims := range [][]int{{4, 5, 6}, {3, 5, 4, 6}} {
		x, u = randomProblem(rng, dims, 3)
		for _, e := range entries {
			// Mode 0 is external and mode 1 internal, so both kernel
			// variants of the 1-step algorithm (and both entry paths of
			// TwoStepInto) are exercised.
			for n := 0; n < 2; n++ {
				notified := 0
				opts := Options{Threads: 2, PhaseNotify: func() { notified++ }}
				got := e.call(n, opts)
				want := Naive(x, u, n)
				if !mat.ApproxEqual(got, want, 1e-11) {
					t.Errorf("%s dims=%v n=%d: result mismatch %g", e.name, dims, n, mat.MaxAbsDiff(got, want))
				}
				if notified != 1 {
					t.Errorf("%s dims=%v n=%d: PhaseNotify invoked %d times, want exactly 1", e.name, dims, n, notified)
				}
			}
		}
	}
}

// TestForcedOrderingsNotify covers the ordering-ablation entry points,
// which share the leaf kernels with TwoStepInto.
func TestForcedOrderingsNotify(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, u := randomProblem(rng, []int{4, 5, 6}, 3)
	want := Naive(x, u, 1)
	for _, e := range []struct {
		name string
		call func(opts Options) mat.View
	}{
		{"TwoStepLeftFirst", func(opts Options) mat.View { return TwoStepLeftFirst(x, u, 1, opts) }},
		{"TwoStepRightFirst", func(opts Options) mat.View { return TwoStepRightFirst(x, u, 1, opts) }},
	} {
		notified := 0
		got := e.call(Options{Threads: 2, PhaseNotify: func() { notified++ }})
		if !mat.ApproxEqual(got, want, 1e-11) {
			t.Errorf("%s: result mismatch %g", e.name, mat.MaxAbsDiff(got, want))
		}
		if notified != 1 {
			t.Errorf("%s: PhaseNotify invoked %d times, want exactly 1", e.name, notified)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPooledKernelsSteadyStateAllocFree pins the pool runtime's core
// guarantee: repeated same-shape MTTKRP calls, and SweepAll sweeps, on
// retained destinations and a pool reuse the pool's workspaces and
// allocate nothing.
func TestPooledKernelsSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Random(rng, 30, 20, 25, 15)
	u := make([]mat.View, 4)
	for k := 0; k < 4; k++ {
		u[k] = mat.RandomDense(x.Dim(k), 16, rng)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		method Method
		n      int
	}{
		{"onestep-ext", MethodOneStep, 0},
		{"onestep-int", MethodOneStep, 1},
		{"twostep-right", MethodTwoStep, 1},
		{"twostep-left", MethodTwoStep, 2},
	} {
		dst := mat.NewDense(x.Dim(tc.n), 16)
		opts := Options{Threads: 4, Pool: pool}
		ComputeInto(dst, tc.method, x, u, tc.n, opts) // warmup
		ComputeInto(dst, tc.method, x, u, tc.n, opts)
		allocs := testing.AllocsPerRun(20, func() {
			ComputeInto(dst, tc.method, x, u, tc.n, opts)
		})
		t.Logf("%s: %.1f allocs/op", tc.name, allocs)
		if allocs > 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}

	// A whole dimension-tree sweep, derivations included, on retained
	// destinations.
	dsts := newDsts(x, 16)
	opts := Options{Threads: 4, Pool: pool}
	update := func(int, mat.View) {}
	SweepAll(x, u, dsts, opts, update) // warmup
	SweepAll(x, u, dsts, opts, update)
	allocs := testing.AllocsPerRun(20, func() {
		SweepAll(x, u, dsts, opts, update)
	})
	t.Logf("sweepall: %.1f allocs/op", allocs)
	if allocs > 0 {
		t.Errorf("sweepall: %v allocs/op, want 0", allocs)
	}
}

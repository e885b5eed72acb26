package cpd

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestALSReconcileAtSweepBoundaries pins the phase-boundary lease
// rebalancing contract end to end: a CP-ALS run executing on a scheduler
// lease shrinks when the admission policy retargets it mid-run and
// re-grows when the pressure drains — with both changes landing exactly at
// sweep boundaries (ALS calls parallel.Reconcile after every sweep, then
// PhaseNotify observes the applied width).
func TestALSReconcileAtSweepBoundaries(t *testing.T) {
	pool := parallel.NewPool(8)
	defer pool.Close()
	l := pool.Lease(8)
	defer l.Close()

	x := tensor.Random(rand.New(rand.NewSource(3)), 14, 12, 10)
	var widths []int
	cfg := Config{
		Rank:     3,
		MaxIters: 6,
		Tol:      -1, // run all sweeps
		Seed:     7,
		Pool:     l,
		PhaseNotify: func() {
			widths = append(widths, l.Width())
			// Play the admission policy: after sweep 2 another request
			// arrives and the scheduler shrinks this lease's budget; after
			// sweep 4 the peer finishes and the budget is restored. The
			// retarget itself happens "between" sweeps here; mid-region
			// deferral of a concurrent Resize is pinned in package
			// parallel (TestLeaseReconcileChurn).
			switch len(widths) {
			case 2:
				l.Resize(2)
			case 4:
				l.Resize(8)
			}
		},
	}
	res, err := ALS(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 6 {
		t.Fatalf("ran %d sweeps, want 6", res.Iters)
	}
	want := []int{8, 8, 2, 2, 8, 8}
	if len(widths) != len(want) {
		t.Fatalf("observed %d sweep boundaries (%v), want %d", len(widths), widths, len(want))
	}
	for i, w := range want {
		if widths[i] != w {
			t.Fatalf("sweep %d ran at width %d, want %d (full trace %v)", i+1, widths[i], w, widths)
		}
	}

	// The run's result must be identical to an unperturbed run: lease
	// resizing changes scheduling, never arithmetic.
	ref, err := ALS(x, Config{Rank: 3, MaxIters: 6, Tol: -1, Seed: 7, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Fit - ref.Fit; d > 1e-12 || d < -1e-12 {
		t.Fatalf("fit %v under resizing vs %v fixed-width (must be deterministic)", res.Fit, ref.Fit)
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// relFrobErr returns ‖got − want‖_F / ‖want‖_F.
func relFrobErr(got, want mat.View) float64 {
	var num, den float64
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			d := got.At(i, j) - want.At(i, j)
			num += d * d
			den += want.At(i, j) * want.At(i, j)
		}
	}
	return math.Sqrt(num / den)
}

// TestAutoSplitBitIdenticalAcrossWidths pins MethodAuto's split path on
// the external modes of order-4+ tensors: the result matches Naive, has
// the same bits at every explicit worker count on a 4-worker pool and
// across a lease resized between calls, and equals SweepAll's result for
// that mode (no-op update) bit for bit.
func TestAutoSplitBitIdenticalAcrossWidths(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		dims []int
		c    int
	}{
		{[]int{3, 5, 4, 6}, 7},
		{[]int{3, 2, 4, 2, 3}, 5},
		{[]int{2, 3, 3, 3, 3, 2}, 9},
	} {
		x, u := randomProblem(rng, tc.dims, tc.c)
		order := len(tc.dims)
		sweep := newDsts(x, tc.c)
		SweepAll(x, u, sweep, Options{Threads: 4, Pool: pool}, func(int, mat.View) {})
		for _, n := range []int{0, order - 1} {
			if k := autoKernel(order, x.Dim, n); k != autoSplit {
				t.Fatalf("dims %v mode %d: MethodAuto runs kernel %d, want the split path", tc.dims, n, k)
			}
			want := ComputeInto(mat.NewDense(x.Dim(n), tc.c), MethodAuto, x, u, n, Options{Threads: 1, Pool: pool})
			if err := relFrobErr(want, Naive(x, u, n)); err > 1e-12 {
				t.Fatalf("dims %v mode %d: relative error %g against Naive", tc.dims, n, err)
			}
			bitsEqual(t, want, sweep[n], "split path vs SweepAll")
			for threads := 2; threads <= 4; threads++ {
				got := ComputeInto(mat.NewDense(x.Dim(n), tc.c), MethodAuto, x, u, n, Options{Threads: threads, Pool: pool})
				bitsEqual(t, got, want, "Threads 1 vs wider")
			}

			// A lease resized between calls: the resize lands at the next
			// call's entry.
			lease := pool.Lease(4)
			opts := Options{Pool: lease, PhaseNotify: func() { parallel.Reconcile(lease) }}
			for _, width := range []int{4, 2, 3, 1} {
				lease.Resize(width)
				got := ComputeInto(mat.NewDense(x.Dim(n), tc.c), MethodAuto, x, u, n, opts)
				if w := lease.Width(); w != width {
					t.Fatalf("lease width %d after resize to %d", w, width)
				}
				bitsEqual(t, got, want, "resized lease vs Threads 1")
			}
			lease.Close()
		}
	}
}

// TestAutoKernelChoice pins MethodAuto's rule: the split path for an
// external mode whose balanced split leaves two or more modes on each
// side, 1-step for the other external modes, 2-step for internal modes.
func TestAutoKernelChoice(t *testing.T) {
	for _, tc := range []struct {
		dims     []int
		external autoKind
	}{
		{[]int{8, 20, 20, 20, 20, 8}, autoSplit},
		{[]int{32, 32, 32, 40}, autoSplit},
		{[]int{113, 30, 100, 100}, autoSplit},
		{[]int{48, 40, 36}, autoOneStep},
		{[]int{96, 80, 72}, autoOneStep},
		{[]int{128, 128, 80}, autoOneStep},
		{[]int{200, 200, 8}, autoOneStep},
		{[]int{30, 40}, autoOneStep},
		{[]int{1000, 4, 4, 4}, autoOneStep}, // s = 1
	} {
		dim := func(k int) int { return tc.dims[k] }
		order := len(tc.dims)
		for n := 0; n < order; n++ {
			want := autoTwoStep
			if n == 0 || n == order-1 {
				want = tc.external
			}
			if got := autoKernel(order, dim, n); got != want {
				t.Errorf("dims %v (split %d) mode %d: kernel %d, want %d", tc.dims, SplitPoint(tc.dims), n, got, want)
			}
		}
	}
}

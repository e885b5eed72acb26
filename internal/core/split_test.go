package core

import (
	"fmt"
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

// TestAutoSplitBitIdenticalAcrossWidths pins every mode that runs a half
// step (halfSplit): MethodAuto's and MethodTwoStep's internal modes, the
// forced left-first and right-first orderings, and MethodAuto's split
// path on every mode of order-4+ tensors with a two-sided split, on
// orders 3 to 6. Each result matches Naive and has the same bits at every
// explicit worker count on a 4-worker pool and across a lease resized
// between calls. MethodTwoStep runs the ordering halfSplit picks; a
// MethodAuto mode equals SweepAll's result for that mode (no-op update)
// bit for bit when it runs at the split, and 2-step's otherwise.
func TestAutoSplitBitIdenticalAcrossWidths(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		dims []int
		c    int
	}{
		{[]int{3, 4, 5}, 6}, // mode 1 right-first
		{[]int{5, 4, 3}, 6}, // mode 1 left-first
		{[]int{3, 5, 4, 6}, 7},
		{[]int{3, 2, 4, 2, 3}, 5},
		{[]int{2, 3, 3, 3, 3, 2}, 9},
	} {
		x, u := randomProblem(rng, tc.dims, tc.c)
		order := len(tc.dims)
		split := SplitPoint(tc.dims)
		atSplit := order >= 4 // each order-4+ shape here splits two-sided, so MethodAuto runs every mode at the split
		sweep := newDsts(x, tc.c)
		SweepAll(x, u, sweep, Options{Threads: 4, Pool: pool}, func(int, mat.View) {})
		for n := 0; n < order; n++ {
			type kernel struct {
				name string
				run  func(Options) mat.View
			}
			into := func(m Method) func(Options) mat.View {
				return func(opts Options) mat.View {
					return ComputeInto(mat.NewDense(x.Dim(n), tc.c), m, x, u, n, opts)
				}
			}
			kernels := []kernel{{"auto", into(MethodAuto)}}
			internal := n != 0 && n != order-1
			if internal {
				kernels = append(kernels,
					kernel{"2-step", into(MethodTwoStep)},
					kernel{"left-first", func(opts Options) mat.View { return TwoStepLeftFirst(x, u, n, opts) }},
					kernel{"right-first", func(opts Options) mat.View { return TwoStepRightFirst(x, u, n, opts) }})
			} else if order < 4 {
				continue // 1-step
			}
			if atSplit && halfSplit(MethodAuto, order, x.Dim, n) != split {
				t.Fatalf("dims %v mode %d: MethodAuto runs s = %d, want the split path at %d", tc.dims, n, halfSplit(MethodAuto, order, x.Dim, n), split)
			}
			want := map[string]mat.View{}
			for _, k := range kernels {
				label := fmt.Sprintf("dims %v mode %d %s", tc.dims, n, k.name)
				ref := k.run(Options{Threads: 1, Pool: pool})
				want[k.name] = ref
				if err := relFrobErr(ref, Naive(x, u, n)); err > 1e-12 {
					t.Fatalf("%s: relative error %g against Naive", label, err)
				}
				for threads := 2; threads <= 4; threads++ {
					bitsEqual(t, k.run(Options{Threads: threads, Pool: pool}), ref, label+": Threads 1 vs wider")
				}

				// A lease resized between calls: the resize lands at the
				// next call's entry.
				lease := pool.Lease(4)
				opts := Options{Pool: lease, PhaseNotify: func() { parallel.Reconcile(lease) }}
				for _, width := range []int{4, 2, 3, 1} {
					lease.Resize(width)
					got := k.run(opts)
					if w := lease.Width(); w != width {
						t.Fatalf("lease width %d after resize to %d", w, width)
					}
					bitsEqual(t, got, ref, label+": resized lease vs Threads 1")
				}
				lease.Close()
			}
			if atSplit {
				bitsEqual(t, want["auto"], sweep[n], fmt.Sprintf("dims %v mode %d: split path vs SweepAll", tc.dims, n))
			}
			if !internal {
				continue
			}
			picked := "left-first"
			if halfSplit(MethodTwoStep, order, x.Dim, n) == n+1 {
				picked = "right-first"
			}
			bitsEqual(t, want["2-step"], want[picked], fmt.Sprintf("dims %v mode %d: 2-step vs %s", tc.dims, n, picked))
			if !atSplit {
				bitsEqual(t, want["auto"], want["2-step"], fmt.Sprintf("dims %v mode %d: auto vs 2-step", tc.dims, n))
			}
		}
	}
}

// TestAutoKernelChoice pins halfSplit, the rule that picks each mode's
// kernel. Under MethodAuto: the split path at SplitPoint for every mode
// of a tensor whose balanced split leaves two or more modes on each side;
// otherwise 2-step for internal modes (s = n+1 when I^L_n ≤ I^R_n, s = n
// otherwise) and 1-step (0) for external ones. MethodTwoStep runs 2-step
// on internal modes and 1-step on external ones whatever the split;
// MethodOneStep always runs 1-step.
func TestAutoKernelChoice(t *testing.T) {
	for _, tc := range []struct {
		dims    []int
		auto    []int // MethodAuto's split per mode; 0 = 1-step
		twoStep []int // MethodTwoStep's
	}{
		{[]int{8, 20, 20, 20, 20, 8}, []int{3, 3, 3, 3, 3, 3}, []int{0, 2, 3, 3, 4, 0}},
		{[]int{32, 32, 32, 40}, []int{2, 2, 2, 2}, []int{0, 2, 2, 0}},
		{[]int{113, 30, 100, 100}, []int{2, 2, 2, 2}, []int{0, 2, 2, 0}},
		{[]int{48, 40, 36}, []int{0, 1, 0}, []int{0, 1, 0}},
		{[]int{96, 80, 72}, []int{0, 1, 0}, []int{0, 1, 0}},
		{[]int{128, 128, 80}, []int{0, 1, 0}, []int{0, 1, 0}},
		{[]int{200, 200, 8}, []int{0, 1, 0}, []int{0, 1, 0}},
		{[]int{36, 40, 48}, []int{0, 2, 0}, []int{0, 2, 0}},
		{[]int{40, 40, 40}, []int{0, 2, 0}, []int{0, 2, 0}}, // I^L_n = I^R_n: right-first
		{[]int{30, 40}, []int{0, 0}, []int{0, 0}},
		{[]int{1000, 4, 4, 4}, []int{0, 1, 2, 0}, []int{0, 1, 2, 0}}, // SplitPoint 1
	} {
		dim := func(k int) int { return tc.dims[k] }
		order := len(tc.dims)
		for n := 0; n < order; n++ {
			for _, want := range []struct {
				method Method
				s      int
			}{{MethodAuto, tc.auto[n]}, {MethodTwoStep, tc.twoStep[n]}, {MethodOneStep, 0}} {
				if got := halfSplit(want.method, order, dim, n); got != want.s {
					t.Errorf("dims %v (split %d) mode %d %v: s = %d, want %d", tc.dims, SplitPoint(tc.dims), n, want.method, got, want.s)
				}
			}
		}
	}
}

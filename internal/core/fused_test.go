package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// bitsEqual compares two matrices for bitwise float64 equality — the
// fusion contract is that a plan hit changes nothing about the arithmetic,
// not merely that it stays within tolerance.
func bitsEqual(t *testing.T, got, want mat.View, label string) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: got %dx%d, want %dx%d", label, got.R, got.C, want.R, want.C)
	}
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("%s: bit mismatch at (%d,%d): %v vs %v", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func randomFusedProblem(rng *rand.Rand) (*tensor.Dense, []mat.View, int) {
	order := 2 + rng.Intn(3) // 2..4
	dims := make([]int, order)
	for i := range dims {
		dims[i] = 2 + rng.Intn(7)
	}
	c := 1 + rng.Intn(6)
	x, u := randomProblem(rng, dims, c)
	return x, u, c
}

// TestFusedPlanBitIdentical is the fusion property test: across random
// shapes, modes and methods, computing against a prebuilt shared-KRP plan
// produces bit-identical output to the plain path at the same worker
// count, and every fusable configuration actually consumes the plan. A
// fixed order-4 trial runs MethodAuto's split path on both external modes.
func TestFusedPlanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := parallel.NewPool(4)
	defer pool.Close()
	methods := []Method{MethodOneStep, MethodTwoStep, MethodAuto}
	plan := new(krp.Plan)
	check := func(label string, x *tensor.Dense, u []mat.View, c, n int, method Method) {
		t.Helper()
		opts := Options{Threads: 4, Pool: pool}

		want := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, opts)

		ws := pool.Acquire()
		FillPlan(plan, pool, ws, 4, method, x, u, n)
		hits0 := plan.Hits()
		got := ComputeIntoWithPlan(mat.NewDense(x.Dim(n), c), method, x, u, n, opts, plan)
		if plan.Hits() == hits0 {
			t.Fatalf("%s (%v mode %d dims %v): fusable method consumed no plan side", label, method, n, x.Dims())
		}
		plan.Reset()
		ws.Release()

		bitsEqual(t, got, want, label+": fused vs unfused")
	}
	for trial := 0; trial < 100; trial++ {
		x, u, c := randomFusedProblem(rng)
		n := rng.Intn(x.Order())
		method := methods[rng.Intn(len(methods))]
		check(fmt.Sprintf("trial %d", trial), x, u, c, n, method)
	}
	x, u := randomProblem(rng, []int{3, 5, 4, 6}, 4)
	for _, n := range []int{0, 3} {
		check("order-4 split path", x, u, 4, n, MethodAuto)
	}
}

// TestFusedPlanSharedAcrossMembers pins the batch contract the scheduler
// relies on: one Fill serves every member of a batch (different tensors,
// same non-target factors), the KRP is computed exactly once — asserted
// via the plan's fill/hit counters — and each member's output is
// bit-identical to its unfused computation.
func TestFusedPlanSharedAcrossMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := parallel.NewPool(4)
	defer pool.Close()
	const c, members = 5, 4

	for _, tc := range []struct {
		method Method
		dims   []int
		n      int
		sides  int // plan lookups per member
	}{
		// 1-step internal mode: two sides per member, all from the single
		// fill.
		{MethodOneStep, []int{9, 8, 7}, 1, 2},
		// Half-step modes (2-step, MethodAuto's split path): the one
		// partial KRP of the half that does not hold mode n.
		{MethodTwoStep, []int{9, 8, 7}, 1, 1},
		{MethodAuto, []int{6, 5, 4, 7}, 0, 1},
		{MethodAuto, []int{6, 5, 4, 7}, 3, 1},
	} {
		n := tc.n
		u := make([]mat.View, len(tc.dims))
		xs := make([]*tensor.Dense, members)
		for i := range xs {
			xs[i] = tensor.Random(rng, tc.dims...)
		}
		for k := range u {
			u[k] = mat.RandomDense(tc.dims[k], c, rng)
		}

		plan := new(krp.Plan)
		ws := pool.Acquire()
		FillPlan(plan, pool, ws, 4, tc.method, xs[0], u, n)
		if plan.Fills() != 1 {
			t.Fatalf("%v mode %d: fills = %d, want 1", tc.method, n, plan.Fills())
		}
		for _, x := range xs {
			opts := Options{Threads: 4, Pool: pool}
			want := ComputeInto(mat.NewDense(x.Dim(n), c), tc.method, x, u, n, opts)
			got := ComputeIntoWithPlan(mat.NewDense(x.Dim(n), c), tc.method, x, u, n, opts, plan)
			bitsEqual(t, got, want, "member")
		}
		if plan.Fills() != 1 || plan.Hits() != int64(tc.sides*members) || plan.Misses() != 0 {
			t.Fatalf("%v mode %d: fills=%d hits=%d misses=%d, want 1 fill, %d hits, 0 misses",
				tc.method, n, plan.Fills(), plan.Hits(), plan.Misses(), tc.sides*members)
		}
		plan.Reset()
		ws.Release()
	}
}

// TestFusedPlanValueMatch pins the network-path contract: a member whose
// factors live in different buffers but carry identical values still hits
// the plan (value comparison against the snapshot), while a member with
// different factor values misses and computes its own KRP — a plan can go
// stale, never wrong. 2-step looks up one partial KRP per call.
func TestFusedPlanValueMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool := parallel.NewPool(2)
	defer pool.Close()
	x := tensor.Random(rng, 6, 5, 4)
	const c, n = 3, 1
	u := make([]mat.View, 3)
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}

	plan := new(krp.Plan)
	ws := pool.Acquire()
	defer ws.Release()
	FillPlan(plan, pool, ws, 2, MethodTwoStep, x, u, n)

	// Same values, fresh buffers: the decoded-payload case.
	clone := make([]mat.View, len(u))
	for k := range u {
		clone[k] = u[k].Clone()
	}
	opts := Options{Threads: 2, Pool: pool}
	want := ComputeInto(mat.NewDense(x.Dim(n), c), MethodTwoStep, x, clone, n, opts)
	got := ComputeIntoWithPlan(mat.NewDense(x.Dim(n), c), MethodTwoStep, x, clone, n, opts, plan)
	bitsEqual(t, got, want, "value-matched clone")
	if plan.Hits() != 1 || plan.Misses() != 0 {
		t.Fatalf("clone factors: hits=%d misses=%d, want 1 hit, 0 misses", plan.Hits(), plan.Misses())
	}

	// Different values: every lookup must miss, result must match the
	// unfused computation of the new factors.
	other := make([]mat.View, len(u))
	for k := range u {
		other[k] = mat.RandomDense(x.Dim(k), c, rng)
	}
	want = ComputeInto(mat.NewDense(x.Dim(n), c), MethodTwoStep, x, other, n, opts)
	got = ComputeIntoWithPlan(mat.NewDense(x.Dim(n), c), MethodTwoStep, x, other, n, opts, plan)
	bitsEqual(t, got, want, "mismatched factors")
	if plan.Misses() != 1 {
		t.Fatalf("mismatched factors: misses=%d, want 1", plan.Misses())
	}
}

// TestFusedReconcileMidBatch pins the fusion × admission interaction: a
// lease shrinking 8→2 between fused members (applied by PhaseNotify →
// Reconcile at the second member's entry, exactly as the scheduler wires
// it) leaves the plan valid and the second member's result bit-identical
// to an unfused run at the post-shrink width.
func TestFusedReconcileMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := parallel.NewPool(8)
	defer pool.Close()
	ref := parallel.NewPool(8)
	defer ref.Close()
	x := tensor.Random(rng, 10, 9, 8)
	const c, n = 6, 1
	u := make([]mat.View, 3)
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}

	for _, method := range []Method{MethodOneStep, MethodTwoStep} {
		lease := pool.Lease(8)
		ws := lease.Acquire()
		plan := new(krp.Plan)
		FillPlan(plan, lease, ws, 0, method, x, u, n)
		opts := Options{Pool: lease, PhaseNotify: func() { parallel.Reconcile(lease) }}

		got1 := ComputeIntoWithPlan(mat.NewDense(x.Dim(n), c), method, x, u, n, opts, plan)
		want1 := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, Options{Threads: 8, Pool: ref})
		bitsEqual(t, got1, want1, "member 1 at width 8")

		// The scheduler's mid-batch rebalance: Resize lands at the next
		// phase boundary, i.e. member 2's entry.
		lease.Resize(2)
		got2 := ComputeIntoWithPlan(mat.NewDense(x.Dim(n), c), method, x, u, n, opts, plan)
		if w := lease.Width(); w != 2 {
			t.Fatalf("lease width after mid-batch shrink = %d, want 2", w)
		}
		want2 := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, Options{Threads: 2, Pool: ref})
		bitsEqual(t, got2, want2, "member 2 after shrink to 2")

		plan.Reset()
		ws.Release()
		lease.Close()
	}
}

// TestFusedPlanSteadyAlloc pins the fusion steady state: a retained plan
// refilled and consumed on a warmed shape-keyed workspace allocates
// nothing — the batch executor's per-batch cost is arena reuse only.
func TestFusedPlanSteadyAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pool := parallel.NewPool(4)
	defer pool.Close()
	x := tensor.Random(rng, 12, 10, 8)
	const c, n = 8, 1
	u := make([]mat.View, 3)
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}
	dst := mat.NewDense(x.Dim(n), c)
	plan := new(krp.Plan)
	ws := pool.Acquire()
	defer ws.Release()
	opts := Options{Threads: 4, Pool: pool}

	cycle := func() {
		FillPlan(plan, pool, ws, 4, MethodTwoStep, x, u, n)
		for i := 0; i < 3; i++ {
			ComputeIntoWithPlan(dst, MethodTwoStep, x, u, n, opts, plan)
		}
		plan.Reset()
	}
	cycle() // warm plan arena, snapshot slab and kernel frames
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Errorf("fused batch cycle: %v allocs/op, want 0", allocs)
	}
}

package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
)

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

// fusedBatchRound blocks the scheduler's only slot, piles k same-shape
// submissions into one open batch, then releases the blocker and waits
// for every ticket. It returns the per-request result matrices.
func fusedBatchRound(t *testing.T, s *Server, reqs []MTTKRPRequest) []mat.View {
	t.Helper()
	blocker, release := park(t, s, 0)
	tickets := make([]*Ticket, len(reqs))
	for i, r := range reqs {
		tickets[i] = s.SubmitMTTKRP(r)
	}
	release()
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	out := make([]mat.View, len(tickets))
	for i, tk := range tickets {
		m, err := tk.MTTKRP()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		out[i] = m
	}
	// Tickets resolve inside batch execution, before the executor folds
	// its fusion counters into stats; drain so assertions see them all.
	s.Drain()
	return out
}

// TestFusedBatchSharedKRP is the serving acceptance test for batch-level
// KRP fusion: k coalesced same-factor requests execute as one fused batch
// (Stats.Fused counts it, FusedSavedFlops prices it) with every member's
// output bit-identical to the plain single-caller computation at the same
// worker count.
func TestFusedBatchSharedKRP(t *testing.T) {
	const width, k = 4, 5
	x, u := problem(21, 6, 14, 11, 9)
	pool := parallel.NewPool(width)
	defer pool.Close()

	for _, method := range []core.Method{core.MethodTwoStep, core.MethodOneStep} {
		s := New(Config{Workers: width, MaxActive: 1})
		want := core.ComputeInto(mat.NewDense(x.Dim(1), 6), method, x, u, 1, core.Options{Threads: width, Pool: pool})
		reqs := make([]MTTKRPRequest, k)
		for i := range reqs {
			reqs[i] = MTTKRPRequest{X: x, Factors: u, Mode: 1, Method: method}
		}
		got := fusedBatchRound(t, s, reqs)
		st := s.Stats()
		s.Close()
		if st.Coalesced != k-1 || st.Batches != 2 {
			t.Fatalf("%v: stats %+v, want %d coalesced in 2 batches", method, st, k-1)
		}
		if st.Fused != 1 {
			t.Fatalf("%v: Fused = %d, want 1 (the KRP computed exactly once for the batch)", method, st.Fused)
		}
		if st.FusedSavedFlops <= 0 {
			t.Fatalf("%v: FusedSavedFlops = %v, want > 0", method, st.FusedSavedFlops)
		}
		for i, m := range got {
			bitsEqual(t, m, want, fmt.Sprintf("%v member %d", method, i))
		}
	}
}

// TestFusedBatchValueEqualFactors pins the network path: requests whose
// factors carry identical values in distinct buffers (every HTTP request
// decodes its own copy) coalesce by value fingerprint and fuse, with
// bit-identical results.
func TestFusedBatchValueEqualFactors(t *testing.T) {
	const width, k = 4, 4
	x, u := problem(22, 5, 12, 10, 8)
	pool := parallel.NewPool(width)
	defer pool.Close()
	want := core.ComputeInto(mat.NewDense(x.Dim(1), 5), core.MethodAuto, x, u, 1, core.Options{Threads: width, Pool: pool})

	s := New(Config{Workers: width, MaxActive: 1})
	defer s.Close()
	reqs := make([]MTTKRPRequest, k)
	for i := range reqs {
		cu := make([]mat.View, len(u))
		for j := range u {
			cu[j] = u[j].Clone() // fresh buffers, identical values
		}
		reqs[i] = MTTKRPRequest{X: x, Factors: cu, Mode: 1}
	}
	got := fusedBatchRound(t, s, reqs)
	st := s.Stats()
	if st.Coalesced != k-1 || st.Fused != 1 {
		t.Fatalf("stats %+v: value-equal factors must coalesce (%d) and fuse (1)", st, k-1)
	}
	for i, m := range got {
		bitsEqual(t, m, want, fmt.Sprintf("member %d", i))
	}
}

// TestFusedBatchDisable pins the baseline knob: with DisableFusion the
// batch still coalesces on the shape key and runs back-to-back, but no
// plan is built and Fused stays 0.
func TestFusedBatchDisable(t *testing.T) {
	const k = 4
	x, u := problem(23, 4, 10, 9, 8)
	s := New(Config{Workers: 2, MaxActive: 1, DisableFusion: true})
	defer s.Close()
	reqs := make([]MTTKRPRequest, k)
	for i := range reqs {
		reqs[i] = MTTKRPRequest{X: x, Factors: u, Mode: 1}
	}
	fusedBatchRound(t, s, reqs)
	st := s.Stats()
	if st.Coalesced != k-1 {
		t.Fatalf("stats %+v: DisableFusion must not disable shape coalescing", st)
	}
	if st.Fused != 0 || st.FusedSavedFlops != 0 {
		t.Fatalf("stats %+v: fusion ran with DisableFusion set", st)
	}
}

// TestFusedBatchMixedFactors pins the hybrid contract: same-shape
// requests with different factor values still coalesce into one batch
// (the PR-2 lease/workspace amortization is factor-independent), the
// plan is seeded from the fingerprint pair, the odd member misses it by
// value and computes its own KRP — every result exact, and the saving
// priced only for the rows the plan actually served.
func TestFusedBatchMixedFactors(t *testing.T) {
	x, u1 := problem(24, 4, 9, 8, 7)
	_, u2 := problem(25, 4, 9, 8, 7) // same shape, different values
	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()
	got := fusedBatchRound(t, s, []MTTKRPRequest{
		{X: x, Factors: u1, Mode: 1},
		{X: x, Factors: u2, Mode: 1},
		{X: x, Factors: u1, Mode: 1},
	})
	st := s.Stats()
	// All three share the shape batch; the u1 pair fuses on the plan.
	if st.Coalesced != 2 || st.Batches != 2 {
		t.Fatalf("stats %+v: want 2 coalesced and 2 batches (shape batch + blocker)", st)
	}
	if st.Fused != 1 || st.FusedSavedFlops <= 0 {
		t.Fatalf("stats %+v: the u1 fingerprint pair must fuse with a positive saving", st)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	for i, u := range [][]mat.View{u1, u2, u1} {
		want := core.Compute(core.MethodAuto, x, u, 1, core.Options{Threads: 2, Pool: pool})
		matsEqual(t, got[i], want, fmt.Sprintf("request %d", i))
	}
}

// TestFusedAcrossBatches pins the plan-fingerprint LRU: two sequential
// same-shape singleton batches (no intra-batch pair to fuse) fuse across
// the batch boundary — the first records its fingerprint, the second
// matches it and takes the fused path — and a third hits the plan the
// shape's workspace retained from the second without refilling it
// (PlanCacheHits), with every result bit-identical to the unfused kernel.
func TestFusedAcrossBatches(t *testing.T) {
	const width = 2
	x, u := problem(27, 5, 13, 11, 9)
	pool := parallel.NewPool(width)
	defer pool.Close()
	want := core.ComputeInto(mat.NewDense(x.Dim(1), 5), core.MethodAuto, x, u, 1, core.Options{Threads: width, Pool: pool})

	s := New(Config{Workers: width, MaxActive: 1})
	defer s.Close()
	round := func(i int) mat.View {
		t.Helper()
		// Fresh factor buffers each round: the network path decodes each
		// request into its own pooled slab, so cross-batch matching must
		// work by value, never by pointer identity.
		cu := make([]mat.View, len(u))
		for j := range u {
			cu[j] = u[j].Clone()
		}
		m, err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: cu, Mode: 1}).MTTKRP()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		// The ticket resolves inside batch execution, before the executor
		// folds its fusion counters into stats and leaves the active set
		// (Completed already counts it); wait for that, so the next round's
		// assertions (and its plan-LRU lookup) see this batch recorded.
		for deadline := time.Now().Add(5 * time.Second); s.Stats().Active != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: batch never completed", i)
			}
			time.Sleep(time.Millisecond)
		}
		return m
	}

	got1 := round(1)
	st := s.Stats()
	if st.Fused != 0 || st.PlanCacheHits != 0 {
		t.Fatalf("stats %+v after round 1: a lone first batch has nothing to fuse with", st)
	}
	got2 := round(2)
	st = s.Stats()
	if st.Fused != 1 {
		t.Fatalf("stats %+v after round 2: the second batch must fuse against the recorded fingerprint", st)
	}
	if st.PlanCacheHits != 0 {
		t.Fatalf("stats %+v after round 2: the first fused batch fills the plan, it cannot hit it", st)
	}
	got3 := round(3)
	st = s.Stats()
	if st.Fused != 2 || st.PlanCacheHits != 1 {
		t.Fatalf("stats %+v after round 3: the third batch must hit the retained plan without refilling", st)
	}
	if st.FusedSavedFlops <= 0 {
		t.Fatalf("stats %+v: a cache-hit batch serves rows it never paid a fill for", st)
	}
	for i, m := range []mat.View{got1, got2, got3} {
		bitsEqual(t, m, want, fmt.Sprintf("round %d", i+1))
	}

	// A different-valued factor set under the same shape key must not hit
	// the stale plan: it misses by value, computes exactly, and replaces
	// the recorded fingerprint.
	_, u2 := problem(28, 5, 13, 11, 9)
	cu := make([]mat.View, len(u2))
	for j := range u2 {
		cu[j] = u2[j].Clone()
	}
	m, err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: cu, Mode: 1}).MTTKRP()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Active != 0; {
		if time.Now().After(deadline) {
			t.Fatal("changed-factor batch never completed")
		}
		time.Sleep(time.Millisecond)
	}
	want2 := core.ComputeInto(mat.NewDense(x.Dim(1), 5), core.MethodAuto, x, u2, 1, core.Options{Threads: width, Pool: pool})
	bitsEqual(t, m, want2, "changed factors")
	if st := s.Stats(); st.PlanCacheHits != 1 {
		t.Fatalf("stats %+v: changed factors hit a stale plan", st)
	}
}

// TestFusedFallbackCounted pins the observability of a failed plan
// build: factors that pass submit validation but fail kernel validation
// panic inside FillPlan, the batch falls back to the unfused loop (where
// each member fails into its own ticket), and FusedFallbacks records the
// degradation.
func TestFusedFallbackCounted(t *testing.T) {
	x, _ := problem(26, 4, 9, 8, 7)
	bad := []mat.View{mat.NewDense(3, 4), mat.NewDense(3, 4), mat.NewDense(3, 4)} // rows mismatch x dims
	s := New(Config{Workers: 2, MaxActive: 1})
	blocker, release := park(t, s, 0)
	t1 := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: bad, Mode: 1})
	t2 := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: bad, Mode: 1})
	release()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	if t1.Err() == nil || t2.Err() == nil {
		t.Fatal("mismatched factors must fail their tickets")
	}
	s.Drain()
	st := s.Stats()
	if st.FusedFallbacks != 1 || st.Fused != 0 {
		t.Fatalf("stats %+v: want the failed plan build counted as 1 fallback, 0 fused", st)
	}
	if st.Failed != 2 {
		t.Fatalf("stats %+v: want both members failed into their tickets", st)
	}
}

// TestJoinWindowClosesAtAdmission pins the coalescing window: a same-key
// request arriving while the batch is queued joins it; one arriving after
// the batch has been popped for execution must open a new batch, never
// append to the executing one.
func TestJoinWindowClosesAtAdmission(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	blocker, release := park(t, s, 0)

	gate, openGate := newGate(t)
	entered := make(chan struct{})
	a1 := s.submitFunc("k", 1, 0, func(parallel.Executor) {
		close(entered)
		<-gate
	})
	a2 := s.submitFunc("k", 1, 0, func(parallel.Executor) { <-gate }) // joins while queued
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (join while queued)", st.Coalesced)
	}

	release()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	<-entered // batch "k" has been popped and is executing
	a3 := s.submitFunc("k", 1, 0, func(parallel.Executor) {})
	openGate()
	for i, tk := range []*Ticket{a1, a2, a3} {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	s.Drain()
	st := s.Stats()
	if st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1: a3 joined a batch already popped for execution", st.Coalesced)
	}
	if st.Batches != 3 {
		t.Fatalf("batches = %d, want 3 (blocker, the a1+a2 batch, a3's own)", st.Batches)
	}
}

// TestJoinWindowRaisesBatchCost pins that a join re-raises the batch's
// total service estimate in the aging queue: a batch that has coalesced
// three unit-cost items is 3× the work of a lone 1.5-cost request and
// must stop outscoring it — per-item cost alone would let the bloated
// batch keep jumping the queue.
func TestJoinWindowRaisesBatchCost(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, AgeBias: 10 * time.Millisecond})
	blocker, release := park(t, s, 0)

	order := make(chan string, 4)
	var tickets []*Ticket
	for i := 0; i < 3; i++ { // batch "a": 3 joined unit-cost items, totalCost 3
		tickets = append(tickets, s.submitFunc("a", 1, 0, func(parallel.Executor) { order <- "a" }))
	}
	tickets = append(tickets, s.submitFunc("b", 1.5, 0, func(parallel.Executor) { order <- "b" }))

	release()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if first := <-order; first != "b" {
		t.Fatalf("first admitted %q, want the lone 1.5-cost request to beat the 3-item unit-cost batch", first)
	}
}

// TestJoinWindowCapClosesBatch pins the MaxBatch bound that keeps the
// aging queue's starvation guarantee real: a full batch stops accepting
// joiners (so a steady joiner stream cannot pin its score at a plateau
// forever), and the next same-key arrival opens a fresh batch.
func TestJoinWindowCapClosesBatch(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, MaxBatch: 2})
	blocker, release := park(t, s, 0)
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		tickets = append(tickets, s.submitFunc("k", 1, 0, func(parallel.Executor) {}))
	}
	release()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	s.Drain()
	st := s.Stats()
	// 5 submissions at cap 2 → batches of 2, 2, 1: two joins, plus the
	// blocker's batch makes 4 executed batches.
	if st.Coalesced != 2 || st.Batches != 4 {
		t.Fatalf("stats %+v: want 2 coalesced and 4 batches (2+2+1 under MaxBatch=2, plus the blocker)", st)
	}

	// The boundary configuration: MaxBatch=1 must never coalesce — a
	// fresh batch already holds one item, so no join window opens.
	s1 := New(Config{Workers: 2, MaxActive: 1, MaxBatch: 1})
	blocker1, release1 := park(t, s1, 0)
	t1 := s1.submitFunc("k", 1, 0, func(parallel.Executor) {})
	t2 := s1.submitFunc("k", 1, 0, func(parallel.Executor) {})
	release1()
	for i, tk := range []*Ticket{blocker1, t1, t2} {
		if err := tk.Err(); err != nil {
			t.Fatalf("MaxBatch=1 ticket %d: %v", i, err)
		}
	}
	s1.Drain()
	if st := s1.Stats(); st.Coalesced != 0 || st.Batches != 3 {
		t.Fatalf("MaxBatch=1 stats %+v: want 0 coalesced, 3 batches", st)
	}
}

// TestJoinWindowSurvivesCapCloseAdmission pins the open-map identity
// guard: after a cap-closed batch A leaves the join window, a newer
// batch B reuses the key; admitting A must not close B's window — a
// same-key arrival while A executes still joins B.
func TestJoinWindowSurvivesCapCloseAdmission(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, MaxBatch: 2})
	blocker, release := park(t, s, 0)

	gate, openGate := newGate(t)
	entered := make(chan struct{})
	// Aging weight 8 on A's first member: A (older, two members) outscores
	// B under any wait, so A pops first.
	a1 := s.submitFunc("k", 1, 8, func(parallel.Executor) {
		close(entered)
		<-gate
	})
	a2 := s.submitFunc("k", 1, 0, func(parallel.Executor) { <-gate }) // fills A: cap-closed
	b1 := s.submitFunc("k", 1, 0, func(parallel.Executor) {})         // opens B under the same key
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (A filled to its cap)", st.Coalesced)
	}

	release()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	<-entered // A popped and executing; B still queued and must stay joinable
	b2 := s.submitFunc("k", 1, 0, func(parallel.Executor) {})
	openGate()
	for i, tk := range []*Ticket{a1, a2, b1, b2} {
		if err := tk.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	s.Drain()
	st := s.Stats()
	if st.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2: admitting cap-closed A closed B's join window", st.Coalesced)
	}
	if st.Batches != 3 {
		t.Fatalf("batches = %d, want 3 (blocker, A×2, B×2)", st.Batches)
	}
}

// TestJoinWindowRace hammers the join window from many submitters while
// batches continuously pop for execution, under -race in CI. The drain
// invariants catch a lost joiner (an item appended after its batch was
// popped would never execute): every submission completes, and every
// accepted request either opened a batch or was counted coalesced.
func TestJoinWindowRace(t *testing.T) {
	s := New(Config{Workers: 4, MaxActive: 2})
	const (
		submitters = 8
		perG       = 50
	)
	var wg sync.WaitGroup
	tickets := make([][]*Ticket, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := "k"
				if i%5 == 0 {
					key = "" // interleave keyless batches to churn the slots
				}
				tickets[g] = append(tickets[g], s.submitFunc(key, 1, 0, func(parallel.Executor) {}))
			}
		}(g)
	}
	wg.Wait()
	for g := range tickets {
		for i, tk := range tickets[g] {
			if err := tk.Err(); err != nil {
				t.Fatalf("submitter %d request %d: %v", g, i, err)
			}
		}
	}
	s.Drain()
	st := s.Stats()
	s.Close()
	if st.Submitted != submitters*perG || st.Completed != st.Submitted || st.Failed != 0 {
		t.Fatalf("stats %+v: want %d submitted == completed, 0 failed", st, submitters*perG)
	}
	if st.Batches+st.Coalesced != st.Submitted {
		t.Fatalf("stats %+v: every request must either open a batch or be coalesced exactly once", st)
	}
}

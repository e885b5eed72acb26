package serve

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// sparseProblem builds a deterministic sparse tensor + factor set.
func sparseProblem(seed int64, density float64, c int, dims ...int) (*tensor.Sparse, []mat.View) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.RandomSparse(rng, density, dims...)
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}
	return x, u
}

// TestServeSparseMTTKRPMatchesDirect submits concurrent sparse requests
// (interleaved with dense ones on the same shapes) and checks every
// result against the direct kernel.
func TestServeSparseMTTKRPMatchesDirect(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	xs, us := sparseProblem(1, 0.05, 6, 15, 12, 10)
	xd, ud := problem(2, 6, 15, 12, 10)

	var tickets []*Ticket
	var wants []mat.View
	for r := 0; r < 3; r++ {
		for mode := 0; mode < 3; mode++ {
			tickets = append(tickets, s.SubmitMTTKRP(MTTKRPRequest{X: xs, Factors: us, Mode: mode}))
			wants = append(wants, core.SparseCompute(xs, us, mode, core.Options{}))
			tickets = append(tickets, s.SubmitMTTKRP(MTTKRPRequest{X: xd, Factors: ud, Mode: mode}))
			wants = append(wants, core.Compute(core.MethodAuto, xd, ud, mode, core.Options{}))
		}
	}
	for i, tk := range tickets {
		m, err := tk.MTTKRP()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		matsEqual(t, m, wants[i], "request")
	}
}

// TestServeSparseCostByNNZ pins the admission economics: a sparse request
// is priced by its stored entries, so it costs far less than a dense
// request of the same shape, and its cost is visible in the grant table
// under a "coo"-tagged shape key.
func TestServeSparseCostByNNZ(t *testing.T) {
	var model CostModel
	xs, _ := sparseProblem(3, 0.01, 8, 40, 30, 20)
	dense := model.MTTKRP([]int{40, 30, 20}, 8)
	sparse := model.MTTKRPFor(xs, 8)
	// The sparse estimate keeps a shape-proportional floor (the factor
	// matrices are read in full regardless of nnz), so the ratio is
	// bounded by the factor-byte term, not by density alone.
	if sparse <= 0 || sparse >= dense/8 {
		t.Fatalf("sparse cost %g not well under dense %g", sparse, dense)
	}

	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()

	// Occupy the only slot so the sparse submission stays observable in
	// the queue with its model cost.
	release := make(chan struct{})
	started := make(chan struct{})
	s.submitFunc("hold", 1, 1, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started

	_, us := sparseProblem(3, 0.01, 8, 40, 30, 20)
	tk := s.SubmitMTTKRP(MTTKRPRequest{X: xs, Factors: us, Mode: 0})

	st := s.Stats()
	found := false
	for _, r := range st.Requests {
		if r.Kind == "mttkrp" && strings.Contains(r.Key, "|coo") {
			found = true
			if r.Cost <= 0 || absRel(r.Cost, sparse) > 1e-9 {
				t.Fatalf("queued sparse request priced %g, want model estimate %g", r.Cost, sparse)
			}
		}
	}
	if !found {
		t.Fatalf("no coo-keyed mttkrp request in grant table: %+v", st.Requests)
	}
	close(release)
	if _, err := tk.MTTKRP(); err != nil {
		t.Fatal(err)
	}
}

func absRel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b != 0 {
		d /= b
	}
	return d
}

// TestServeSparseCP runs a sparse CP decomposition through the scheduler
// and checks it matches a direct cpd.ALS run with the same seed.
func TestServeSparseCP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	xs, _ := sparseProblem(4, 0.05, 2, 12, 10, 8)
	cfg := cpd.Config{Rank: 3, MaxIters: 4, Tol: -1, Seed: 7}
	res, err := s.SubmitCP(CPRequest{X: xs, Config: cfg}).CP()
	if err != nil {
		t.Fatal(err)
	}
	local, err := cpd.ALS(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != local.Iters {
		t.Fatalf("served %d iters, local %d", res.Iters, local.Iters)
	}
	for k := range res.K.Factors {
		matsEqual(t, res.K.Factors[k], local.K.Factors[k], "factor")
	}
}

// TestServeSparseDoesNotFuse pins that same-shape sparse requests coalesce
// into batches (lease amortization) but never build a KRP plan — fusion is
// a dense-only optimization.
func TestServeSparseDoesNotFuse(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	defer s.Close()
	xs, us := sparseProblem(5, 0.05, 4, 10, 9, 8)

	release := make(chan struct{})
	started := make(chan struct{})
	s.submitFunc("hold", 1, 1, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started

	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tickets = append(tickets, s.SubmitMTTKRP(MTTKRPRequest{X: xs, Factors: us, Mode: 1}))
	}
	close(release)
	want := core.SparseCompute(xs, us, 1, core.Options{})
	for _, tk := range tickets {
		m, err := tk.MTTKRP()
		if err != nil {
			t.Fatal(err)
		}
		matsEqual(t, m, want, "batched sparse")
	}
	st := s.Stats()
	if st.Coalesced == 0 {
		t.Fatal("same-shape sparse requests did not coalesce")
	}
	if st.Fused != 0 {
		t.Fatalf("%d sparse batches fused; fusion is dense-only", st.Fused)
	}
}

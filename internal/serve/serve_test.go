package serve

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// problem builds a deterministic tensor + factor set.
func problem(seed int64, c int, dims ...int) (*tensor.Dense, []mat.View) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Random(rng, dims...)
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}
	return x, u
}

func matsEqual(t *testing.T, got, want mat.View, label string) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: got %dx%d, want %dx%d", label, got.R, got.C, want.R, want.C)
	}
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			d := got.At(i, j) - want.At(i, j)
			if d > 1e-10 || d < -1e-10 {
				t.Fatalf("%s: mismatch at (%d,%d): %g vs %g", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestServeMTTKRPMatchesDirect floods the scheduler with concurrent
// requests over mixed shapes, modes and methods and checks every result
// against the direct single-caller API.
func TestServeMTTKRPMatchesDirect(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	x1, u1 := problem(1, 6, 12, 10, 8)
	x2, u2 := problem(2, 5, 7, 9, 6, 5)
	type cs struct {
		x      *tensor.Dense
		u      []mat.View
		mode   int
		method core.Method
	}
	var cases []cs
	for mode := 0; mode < 3; mode++ {
		cases = append(cases, cs{x1, u1, mode, core.MethodAuto})
	}
	for mode := 0; mode < 4; mode++ {
		cases = append(cases, cs{x2, u2, mode, core.MethodOneStep})
		cases = append(cases, cs{x2, u2, mode, core.MethodTwoStep})
	}

	const rounds = 6
	tickets := make([]*Ticket, 0, rounds*len(cases))
	wants := make([]mat.View, 0, rounds*len(cases))
	for r := 0; r < rounds; r++ {
		for _, c := range cases {
			tickets = append(tickets, s.SubmitMTTKRP(MTTKRPRequest{X: c.x, Factors: c.u, Mode: c.mode, Method: c.method}))
			wants = append(wants, core.Compute(c.method, c.x, c.u, c.mode, core.Options{Threads: 2}))
		}
	}
	for i, tk := range tickets {
		got, err := tk.MTTKRP()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		matsEqual(t, got, wants[i], fmt.Sprintf("request %d", i))
	}
	st := s.Stats()
	if st.Completed != len(tickets) || st.Failed != 0 {
		t.Fatalf("stats: %+v, want %d completed, 0 failed", st, len(tickets))
	}
}

// TestServeBatchingCoalesces blocks the scheduler with a sentinel request
// so that same-shape submissions pile into one open batch, then checks the
// batch executed them all correctly on a shared lease.
func TestServeBatchingCoalesces(t *testing.T) {
	s := New(Config{Workers: 4, MaxActive: 1})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started // the scheduler's only slot is now occupied

	x, u := problem(3, 6, 14, 11, 9)
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{Threads: 2})
	const k = 5
	var tickets [k]*Ticket
	for i := range tickets {
		tickets[i] = s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1})
	}
	if st := s.Stats(); st.Coalesced != k-1 {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, k-1)
	}
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i, tk := range tickets {
		got, err := tk.MTTKRP()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		matsEqual(t, got, want, fmt.Sprintf("request %d", i))
	}
	st := s.Stats()
	// The k coalesced requests executed as one batch (the blocker is the
	// other batch).
	if st.Batches != 2 {
		t.Fatalf("batches %d, want 2", st.Batches)
	}
	if st.PeakActive != 1 {
		t.Fatalf("peak active %d, want 1", st.PeakActive)
	}
}

// TestServeDisableBatching pins that DisableBatching gives every request
// its own batch even under an occupied scheduler.
func TestServeDisableBatching(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, DisableBatching: true})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	x, u := problem(4, 4, 10, 8, 6)
	t1 := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	t2 := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Coalesced != 0 || st.Batches != 3 {
		t.Fatalf("stats %+v, want 0 coalesced, 3 batches", st)
	}
}

// TestServeCP runs concurrent CP decompositions through the scheduler and
// compares fits against direct runs with the same seeds.
func TestServeCP(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	x, _ := problem(5, 1, 13, 11, 9)
	cfg := cpd.Config{Rank: 3, MaxIters: 4, Tol: -1, Seed: 7}
	want, err := cpd.ALS(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickets [3]*Ticket
	for i := range tickets {
		tickets[i] = s.SubmitCP(CPRequest{X: x, Config: cfg})
	}
	for i, tk := range tickets {
		res, err := tk.CP()
		if err != nil {
			t.Fatalf("cp %d: %v", i, err)
		}
		if res.Iters != want.Iters {
			t.Fatalf("cp %d: %d iters, want %d", i, res.Iters, want.Iters)
		}
		d := res.Fit - want.Fit
		if d > 1e-12 || d < -1e-12 {
			t.Fatalf("cp %d: fit %v, want %v (deterministic per seed)", i, res.Fit, want.Fit)
		}
	}
}

// TestServeAdmissionControl checks that MaxActive defaults to
// Workers / MinWorkers and bounds concurrency.
func TestServeAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 8, MinWorkers: 2})
	defer s.Close()
	if s.maxActive != 4 {
		t.Fatalf("default MaxActive = %d, want 4 (workers/minworkers)", s.maxActive)
	}

	// Saturate the scheduler with blockers; verify the cap holds and
	// queued work drains afterwards.
	release := make(chan struct{})
	var mu sync.Mutex
	running := 0
	peak := 0
	var blockers []*Ticket
	for i := 0; i < 9; i++ {
		blockers = append(blockers, s.submitFunc("", 0, 0, func(parallel.Executor) {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			<-release
			mu.Lock()
			running--
			mu.Unlock()
		}))
	}
	close(release)
	for _, tk := range blockers {
		if err := tk.Err(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 4 {
		t.Fatalf("observed %d concurrent requests, cap is 4", peak)
	}
	if st := s.Stats(); st.PeakActive > 4 {
		t.Fatalf("PeakActive %d, cap is 4", st.PeakActive)
	}
}

// TestServeLeaseBudgets observes the scheduler's worker assignment from
// inside requests: a lone request gets the full width, and once four are
// active each holds width/4.
func TestServeLeaseBudgets(t *testing.T) {
	s := New(Config{Workers: 8})
	defer s.Close()

	solo := make(chan int, 1)
	s.submitFunc("", 0, 0, func(ex parallel.Executor) { solo <- ex.Workers() }).Err()
	if w := <-solo; w != 8 {
		t.Fatalf("solo request granted width %d, want 8", w)
	}

	// Hold 4 requests active simultaneously and measure each one's width
	// while the other three are provably still active: all four have
	// entered (so the last admission's rebalance has set every target to
	// width/4 = 2) and none has been released yet.
	var entered sync.WaitGroup
	entered.Add(4)
	measure := make(chan struct{})
	release := make(chan struct{})
	widths := make(chan int, 4)
	for i := 0; i < 4; i++ {
		s.submitFunc("", 0, 0, func(ex parallel.Executor) {
			entered.Done()
			<-measure
			widths <- ex.Effective(0) // the kernel-entry resolution path
			<-release
		})
	}
	entered.Wait()
	close(measure)
	for i := 0; i < 4; i++ {
		if w := <-widths; w != 2 {
			t.Fatalf("granted width %d with 4 active on 8 workers, want 2", w)
		}
	}
	close(release)
}

// TestServeErrors covers synchronous validation, panic recovery, and
// closed-server behavior.
func TestServeErrors(t *testing.T) {
	s := New(Config{Workers: 2})
	x, u := problem(6, 4, 8, 7, 6)

	if err := s.SubmitMTTKRP(MTTKRPRequest{}).Err(); err == nil {
		t.Fatal("nil tensor accepted")
	}
	if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 9}).Err(); err == nil {
		t.Fatal("out-of-range mode accepted")
	}
	// Shape mismatch detected inside core: recovered into the ticket.
	bad := []mat.View{u[0], u[1], mat.NewDense(3, 4)}
	if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: bad, Mode: 0}).Err(); err == nil {
		t.Fatal("mismatched factors accepted")
	}
	if err := s.SubmitCP(CPRequest{X: x, Config: cpd.Config{Rank: 0}}).Err(); err == nil {
		t.Fatal("bad rank accepted")
	}
	st := s.Stats()
	if st.Failed == 0 {
		t.Fatalf("stats %+v: expected failures recorded", st)
	}
	s.Close()
	if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0}).Err(); err != ErrDraining {
		t.Fatalf("submit after close: %v, want ErrDraining", err)
	}
}

// TestServeDrain pins the graceful-drain contract: Drain completes queued
// and running work, rejects new submissions with the typed ErrDraining,
// and a Close afterwards fails nothing.
func TestServeDrain(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	x, u := problem(7, 3, 6, 5, 4)
	queued := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Submissions during the drain are refused with the typed error.
	var rejected *Ticket
	for {
		rejected = s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
		select {
		case <-rejected.Done():
		default:
			// Raced ahead of Drain marking the server; this one was
			// accepted and will complete. Try again.
			continue
		}
		break
	}
	if err := rejected.Err(); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while admitted work still running")
	default:
	}
	close(release)
	<-drained
	if err := blocker.Err(); err != nil {
		t.Fatalf("running request after drain: %v", err)
	}
	if err := queued.Err(); err != nil {
		t.Fatalf("queued request after drain: %v (drain must complete admitted work)", err)
	}
	st := s.Stats()
	// Drain-rejected submissions are never accepted, so they appear in no
	// counter; everything accepted completed successfully.
	if st.Failed != 0 || st.Submitted != st.Completed {
		t.Fatalf("stats %+v: want no failures and Submitted == Completed", st)
	}
	s.Close()
}

// TestServeCloseFailsQueued pins that Close fails requests still waiting
// for admission rather than abandoning them.
func TestServeCloseFailsQueued(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
		close(started)
		<-release
	})
	<-started
	x, u := problem(7, 3, 6, 5, 4)
	queued := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0})
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	if err := queued.Err(); err != ErrClosed {
		t.Fatalf("queued request: %v, want ErrClosed", err)
	}
	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatalf("running request: %v", err)
	}
	<-done
	// Queued-then-failed requests still count as completed (failed), so
	// the Submitted == Completed drain invariant survives a Close.
	st := s.Stats()
	if st.Submitted != 2 || st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("stats after close: %+v, want 2 submitted, 2 completed, 1 failed", st)
	}
}

// TestServeWorkerPanicRecovered pins that a kernel panic on a reserved
// worker goroutine (not just the coordinator) fails only that request's
// ticket: the server keeps serving and the process survives.
func TestServeWorkerPanicRecovered(t *testing.T) {
	s := New(Config{Workers: 4, MinWorkers: 4}) // every request gets the full width
	defer s.Close()
	tk := s.submitFunc("", 0, 0, func(ex parallel.Executor) {
		ex.Run(4, func(w int) {
			if w == 3 {
				panic("bad request data")
			}
		})
	})
	if err := tk.Err(); err == nil {
		t.Fatal("worker panic not surfaced on the ticket")
	}
	// The server must still work.
	x, u := problem(9, 4, 9, 8, 7)
	want := core.Compute(core.MethodAuto, x, u, 0, core.Options{Threads: 2})
	got, err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 0}).MTTKRP()
	if err != nil {
		t.Fatal(err)
	}
	matsEqual(t, got, want, "post-panic request")
}

// TestServeSteadyStateDst pins the serving steady state: a caller that
// retains its dst across same-shape submissions gets results written
// through it, with the shape-keyed workspaces reused underneath.
func TestServeSteadyStateDst(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	x, u := problem(8, 5, 11, 9, 7)
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{Threads: 2})
	dst := mat.NewDense(x.Dim(1), 5)
	for i := 0; i < 10; i++ {
		got, err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dst}).MTTKRP()
		if err != nil {
			t.Fatal(err)
		}
		if &got.Data[0] != &dst.Data[0] {
			t.Fatal("result not written through the retained dst")
		}
		matsEqual(t, got, want, fmt.Sprintf("iteration %d", i))
	}
}

// TestServeTruncatedMappingFailsTicket truncates a mapped tensor file
// under the server: the kernels' reads of the vanished pages fault, and
// each fault must fail its own ticket (on the coordinator and on pool
// workers alike) while the server keeps serving. Every kind of ticket that
// reads the tensor is covered: each MTTKRP mode, the reorder baseline
// (whose unfold copies the whole tensor) and a CP run (whose ‖X‖ reads
// every entry), all on the lease.
func TestServeTruncatedMappingFailsTicket(t *testing.T) {
	x, u := problem(10, 4, 30, 24, 20)
	path := filepath.Join(t.TempDir(), "x.dsnt")
	if err := tensor.WriteDenseFile(path, x); err != nil {
		t.Fatal(err)
	}
	m, err := tensor.OpenDense(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Skip("no mmap on this host: the tensor is a heap copy")
	}
	// Keep the header page only: every data page now lies past EOF.
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 4} {
		s := New(Config{Workers: width, MinWorkers: width})
		for mode := 0; mode < x.Order(); mode++ {
			// The by-reference transport submits the mapping's Dense.
			_, err := s.SubmitMTTKRP(MTTKRPRequest{X: m.Dense, Factors: u, Mode: mode}).MTTKRP()
			if err == nil {
				t.Fatalf("width %d mode %d: MTTKRP over a truncated mapping succeeded", width, mode)
			}
		}
		reorder := MTTKRPRequest{X: m.Dense, Factors: u, Mode: 1, Method: core.MethodReorder}
		if _, err := s.SubmitMTTKRP(reorder).MTTKRP(); err == nil {
			t.Fatalf("width %d: reorder MTTKRP over a truncated mapping succeeded", width)
		}
		cp := CPRequest{X: m.Dense, Config: cpd.Config{Rank: 3, MaxIters: 2, Tol: -1}}
		if _, err := s.SubmitCP(cp).CP(); err == nil {
			t.Fatalf("width %d: CP over a truncated mapping succeeded", width)
		}
		want := core.Compute(core.MethodAuto, x, u, 1, core.Options{Threads: width})
		got, err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1}).MTTKRP()
		if err != nil {
			t.Fatalf("width %d: request after the faults: %v", width, err)
		}
		matsEqual(t, got, want, fmt.Sprintf("width %d, after the faults", width))
		s.Close()
	}
}

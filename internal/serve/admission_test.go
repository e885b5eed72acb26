package serve

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestAdmissionCostWeightedBudgets pins the cost-share budget policy: two
// active requests with a 3:1 cost ratio on an 8-wide pool hold budgets of
// 6 and 2 — not the even 4/4 split.
func TestAdmissionCostWeightedBudgets(t *testing.T) {
	s := New(Config{Workers: 8, MaxActive: 2})
	defer s.Close()

	var entered sync.WaitGroup
	entered.Add(2)
	measure := make(chan struct{})
	release := make(chan struct{})
	type obs struct {
		name  string
		width int
	}
	widths := make(chan obs, 2)
	submit := func(name string, cost float64) {
		s.submitFunc("", cost, 0, func(ex parallel.Executor) {
			entered.Done()
			<-measure
			// Kernel-entry resolution: reconciles the budget first.
			widths <- obs{name, ex.Effective(0)}
			<-release
		})
	}
	submit("big", 3)
	submit("small", 1)
	entered.Wait()
	close(measure)
	got := map[string]int{}
	for i := 0; i < 2; i++ {
		o := <-widths
		got[o.name] = o.width
	}
	close(release)
	if got["big"] != 6 || got["small"] != 2 {
		t.Fatalf("budgets big=%d small=%d, want 6 and 2 (cost share of 8 workers at 3:1)", got["big"], got["small"])
	}
}

// TestAdmissionMaxShareAndFloor pins the cap and floor of the cost-aware
// policy: MaxShare bounds even a lone huge request, and MinWorkers keeps a
// tiny request from being starved to zero width by a dominant peer.
func TestAdmissionMaxShareAndFloor(t *testing.T) {
	// A lone request is capped at MaxShare of the width.
	s := New(Config{Workers: 8, MaxShare: 0.5})
	solo := make(chan int, 1)
	s.submitFunc("", 1e9, 0, func(ex parallel.Executor) { solo <- ex.Effective(0) }).Err()
	if w := <-solo; w != 4 {
		t.Fatalf("lone request granted %d workers under MaxShare 0.5 of 8, want 4", w)
	}
	s.Close()

	// A 100:1 cost ratio still leaves the small request its floor.
	s = New(Config{Workers: 8, MinWorkers: 2, MaxShare: 0.75, MaxActive: 2})
	defer s.Close()
	var entered sync.WaitGroup
	entered.Add(2)
	measure := make(chan struct{})
	release := make(chan struct{})
	widths := make(chan [2]int, 2)
	submit := func(idx int, cost float64) {
		s.submitFunc("", cost, 0, func(ex parallel.Executor) {
			entered.Done()
			<-measure
			widths <- [2]int{idx, ex.Effective(0)}
			<-release
		})
	}
	submit(0, 100)
	submit(1, 1)
	entered.Wait()
	close(measure)
	got := map[int]int{}
	for i := 0; i < 2; i++ {
		w := <-widths
		got[w[0]] = w[1]
	}
	close(release)
	if got[0] != 6 {
		t.Fatalf("dominant request granted %d, want 6 (MaxShare 0.75 of 8)", got[0])
	}
	if got[1] != 2 {
		t.Fatalf("tiny request granted %d, want the MinWorkers floor 2", got[1])
	}
}

// TestAdmissionAgingPreventsConvoy pins the anti-convoy property: a small
// request that arrives behind an already-queued large one overtakes it at
// the next admission slot, and the reorder is counted.
func TestAdmissionAgingPreventsConvoy(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	blocker, release := park(t, s, 0)

	order := make(chan string, 2)
	s.submitFunc("", 1e9, 0, func(parallel.Executor) { order <- "large" })
	small := s.submitFunc("", 1, 0, func(parallel.Executor) { order <- "small" })
	release()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	if err := small.Err(); err != nil {
		t.Fatal(err)
	}
	if first := <-order; first != "small" {
		t.Fatalf("first admitted %q, want the small request to overtake the queued convoy", first)
	}
	if second := <-order; second != "large" {
		t.Fatalf("second admitted %q, want large", second)
	}
	if st := s.Stats(); st.Reordered < 1 {
		t.Fatalf("stats %+v: aging reorder not counted", st)
	}
}

// TestAdmissionAgingBoundsStarvation pins the other half of the aging
// contract: a large request that has waited long enough beats a
// just-arrived small one, so a continuous small-request stream cannot
// starve it. With AgeBias b, a request costing k× more wins once its age
// exceeds ~k·b.
func TestAdmissionAgingBoundsStarvation(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1, AgeBias: time.Millisecond})
	blocker, release := park(t, s, 0)

	order := make(chan string, 2)
	large := s.submitFunc("", 4, 0, func(parallel.Executor) { order <- "large" })
	// Let the large request age well past costRatio·AgeBias = 4 ms.
	time.Sleep(40 * time.Millisecond)
	s.submitFunc("", 1, 0, func(parallel.Executor) { order <- "small" })
	release()
	if err := blocker.Err(); err != nil {
		t.Fatal(err)
	}
	if err := large.Err(); err != nil {
		t.Fatal(err)
	}
	if first := <-order; first != "large" {
		t.Fatalf("first admitted %q, want the aged large request", first)
	}
	<-order
}

// TestAdmissionStatsQueueVisibility pins the saturation observability the
// drain/supervision tooling needs: queue depth, per-request granted
// budgets, queue ages and the max-wait high-water mark.
func TestAdmissionStatsQueueVisibility(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	blocker, release := park(t, s, 5)
	q1 := s.submitFunc("", 1, 0, func(parallel.Executor) {})
	q2 := s.submitFunc("", 2, 0, func(parallel.Executor) {})
	time.Sleep(5 * time.Millisecond) // let the queued requests age measurably

	st := s.Stats()
	if st.Active != 1 || st.Queued != 2 || st.PeakQueued < 2 {
		t.Fatalf("stats %+v: want 1 active, 2 queued, peak ≥ 2", st)
	}
	if st.OldestQueuedMs <= 0 {
		t.Fatalf("OldestQueuedMs = %v, want > 0 with aged queued requests", st.OldestQueuedMs)
	}
	if len(st.Requests) != 3 {
		t.Fatalf("len(Requests) = %d, want 3 (1 active + 2 queued)", len(st.Requests))
	}
	activeSeen, queuedSeen := 0, 0
	for _, r := range st.Requests {
		if r.Kind != "func" {
			t.Fatalf("request kind %q, want func", r.Kind)
		}
		if r.Budget > 0 {
			activeSeen++
			if r.Budget != 2 {
				t.Fatalf("active budget %d, want the full width 2", r.Budget)
			}
		} else {
			queuedSeen++
			if r.QueuedMs <= 0 {
				t.Fatalf("queued request age %v, want > 0", r.QueuedMs)
			}
		}
	}
	if activeSeen != 1 || queuedSeen != 2 {
		t.Fatalf("requests: %d active, %d queued, want 1 and 2 (%+v)", activeSeen, queuedSeen, st.Requests)
	}

	release()
	blocker.Err()
	q1.Err()
	q2.Err()
	if st := s.Stats(); st.MaxQueueWaitMs <= 0 {
		t.Fatalf("MaxQueueWaitMs = %v after queued work drained, want > 0", st.MaxQueueWaitMs)
	}
}

// TestAdmissionProjectedWait pins the transport's shed signal: zero with
// no history or no backlog, positive once the scheduler is saturated with
// queued work, and no smaller for a costlier request (which cannot
// overtake more of the queue).
func TestAdmissionProjectedWait(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 1})
	t.Cleanup(s.Close)

	if d := s.ProjectedWait(100); d != 0 {
		t.Fatalf("ProjectedWait with no history = %v, want 0", d)
	}
	// One completed batch seeds the service-rate estimate.
	if err := s.submitFunc("", 100, 0, func(parallel.Executor) { time.Sleep(2 * time.Millisecond) }).Err(); err != nil {
		t.Fatal(err)
	}
	if d := s.ProjectedWait(100); d != 0 {
		t.Fatalf("ProjectedWait on an idle server = %v, want 0", d)
	}

	blocker, release := park(t, s, 100)
	queued := s.submitFunc("", 100, 0, func(parallel.Executor) {})

	small := s.ProjectedWait(1)
	big := s.ProjectedWait(200)
	if big <= 0 {
		t.Fatalf("ProjectedWait(200) = %v with a saturated scheduler, want > 0", big)
	}
	if big < small {
		t.Fatalf("ProjectedWait(200) = %v < ProjectedWait(1) = %v; costlier requests cannot wait less", big, small)
	}
	release()
	blocker.Err()
	queued.Err()
}

// TestAdmissionProjectedWaitAfterResolve pins that a batch stops counting
// toward ProjectedWait the moment its last ticket resolves, before run
// retires it, and that its service rate is recorded by then: a client that
// holds its answer and submits again at once is priced against an idle
// scheduler, never behind its own finished request. That window is too
// short to hit from outside, so the test holds a batch in it: it admits
// the batch by hand and executes its only member as run does, with no run
// goroutine to retire it.
func TestAdmissionProjectedWaitAfterResolve(t *testing.T) {
	s := New(Config{Workers: 1, MaxActive: 1})
	t.Cleanup(s.Close)
	admit := func() *batch {
		b := &batch{kind: "func", items: []*item{{fn: func(parallel.Executor) {}, tk: newTicket()}}, cost: 1e12}
		s.mu.Lock()
		s.active[b] = &grant{started: time.Now()}
		s.mu.Unlock()
		return b
	}
	done := admit()
	s.execute(done, done.items[0], nil, nil)
	if err := done.items[0].tk.Err(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	rate := s.rate
	s.mu.Unlock()
	if rate <= 0 {
		t.Fatal("no service rate recorded when the batch's last ticket resolved")
	}
	if d := s.ProjectedWait(1); d != 0 {
		t.Fatalf("ProjectedWait = %v behind a batch whose last ticket resolved, want 0", d)
	}
	live := admit()
	if d := s.ProjectedWait(1); d <= 0 {
		t.Fatalf("ProjectedWait = %v behind a running 1e12-cost batch, want > 0", d)
	}
	s.mu.Lock()
	delete(s.active, done)
	delete(s.active, live)
	s.mu.Unlock()
}

// TestCostModel pins the model's ordering properties (the policy only
// needs relative costs) and the hint/weight resolution rules.
func TestCostModel(t *testing.T) {
	var m CostModel
	small := m.MTTKRP([]int{12, 10, 8}, 4)
	large := m.MTTKRP([]int{48, 40, 36}, 16)
	if small <= 0 || large <= small {
		t.Fatalf("MTTKRP costs small=%g large=%g, want 0 < small < large", small, large)
	}
	cp := m.CP([]int{12, 10, 8}, 4, 10, core.MethodAuto)
	if cp <= small {
		t.Fatalf("CP cost %g not above one MTTKRP %g (10 sweeps × 2 passes)", cp, small)
	}
	if m.CP([]int{12, 10, 8}, 4, 0, core.MethodAuto) != m.CP([]int{12, 10, 8}, 4, 50, core.MethodAuto) {
		t.Fatal("CP sweeps=0 must price the cpd default sweep budget (50)")
	}

	// CP is priced by what runs: the default dense sweep makes two tensor
	// passes plus derivations, a named method one MTTKRP per mode, and a
	// sparse tensor one nnz-priced MTTKRP per mode.
	dims4 := []int{12, 10, 8, 6}
	if auto, named := m.CP(dims4, 4, 10, core.MethodAuto), m.CP(dims4, 4, 10, core.MethodTwoStep); auto >= 0.6*named {
		t.Fatalf("4-way CP: default sweep %g, per-mode %g; want under 0.6×", auto, named)
	}
	if auto, named := m.CP([]int{30, 20}, 4, 10, core.MethodAuto), m.CP([]int{30, 20}, 4, 10, core.MethodOneStep); auto != named {
		t.Fatalf("order-2 CP: default sweep %g, per-mode %g; want equal", auto, named)
	}
	xs := tensor.RandomSparse(rand.New(rand.NewSource(1)), 0.01, 30, 24, 20)
	if sp, de := m.CPFor(xs, 8, 10, core.MethodAuto), m.CPFor(xs.Densify(), 8, 10, core.MethodAuto); sp >= de {
		t.Fatalf("1%%-dense sparse CP %g, dense CP of the same shape %g; want sparse cheaper", sp, de)
	}
	if m.CPFor(xs.Densify(), 8, 10, core.MethodTwoStep) != m.CP(xs.Dims(), 8, 10, core.MethodTwoStep) {
		t.Fatal("CPFor on a dense tensor must price as CP")
	}
	m.CPFor(tensor.New(), 8, 10, core.MethodAuto) // order 0 prices without panicking; cpd rejects it
	if got := costOf(7, 99); got != 7 {
		t.Fatalf("costOf hint override = %g, want 7", got)
	}
	if got := costOf(0, 99); got != 99 {
		t.Fatalf("costOf estimate fallback = %g, want 99", got)
	}
	if got := costOf(0, 0); got != 1 {
		t.Fatalf("costOf default = %g, want 1", got)
	}
	if got := weightOf(0); got != 1 {
		t.Fatalf("weightOf default = %g, want 1", got)
	}

	// A mapped tensor computes as its dense shape, so it prices exactly as
	// one.
	path := filepath.Join(t.TempDir(), "x.dsnt")
	if err := tensor.WriteDenseFile(path, tensor.Random(rand.New(rand.NewSource(3)), 20, 16, 12)); err != nil {
		t.Fatal(err)
	}
	mapped, err := tensor.OpenDense(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if got, want := m.MTTKRPFor(mapped.Dense, 8), m.MTTKRP(mapped.Dims(), 8); got != want {
		t.Fatalf("MTTKRPFor(mapped) = %g, want the dense estimate %g", got, want)
	}
}

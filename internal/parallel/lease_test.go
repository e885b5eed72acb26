package parallel

import (
	"sync"
	"testing"
)

// TestEffectiveResolution pins the single t = 0 resolution rule and its
// relationship to Workers(): pools resolve t <= 0 to GOMAXPROCS no matter
// their current team size (growing on demand), leases cap at their width.
func TestEffectiveResolution(t *testing.T) {
	if got := Effective(0); got != DefaultThreads() {
		t.Fatalf("Effective(0) = %d, want DefaultThreads() = %d", got, DefaultThreads())
	}
	if got := Effective(-3); got != DefaultThreads() {
		t.Fatalf("Effective(-3) = %d, want %d", got, DefaultThreads())
	}
	if got := Effective(7); got != 7 {
		t.Fatalf("Effective(7) = %d, want 7", got)
	}
	if got := EffectiveOn(nil, 0); got != DefaultThreads() {
		t.Fatalf("EffectiveOn(nil, 0) = %d, want %d", got, DefaultThreads())
	}

	p := NewPool(2)
	defer p.Close()
	if got := p.Effective(0); got != DefaultThreads() {
		t.Fatalf("pool Effective(0) = %d, want %d (team size is not a cap)", got, DefaultThreads())
	}
	if got := p.Effective(9); got != 9 {
		t.Fatalf("pool Effective(9) = %d, want 9", got)
	}
	// A dispatch wider than the team grows it: Workers catches up with the
	// resolved width.
	p.Run(5, func(int) {})
	if got := p.Workers(); got != 5 {
		t.Fatalf("Workers() = %d after a width-5 dispatch, want 5", got)
	}

	l := p.Lease(3)
	defer l.Close()
	if got := l.Effective(0); got != 3 {
		t.Fatalf("lease Effective(0) = %d, want the granted width 3", got)
	}
	if got := l.Effective(2); got != 2 {
		t.Fatalf("lease Effective(2) = %d, want 2", got)
	}
	if got := l.Effective(99); got != 3 {
		t.Fatalf("lease Effective(99) = %d, want the cap 3", got)
	}
}

// sumFor runs a For over [0, n) adding indices into per-worker cells and
// returns the total — a correctness probe for any executor.
func sumFor(ex Executor, t, n int) int {
	cells := make([]int64, 64)
	ex.For(t, n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cells[w] += int64(i)
		}
	})
	total := int64(0)
	for _, c := range cells {
		total += c
	}
	return int(total)
}

// TestLeaseBasics covers reservation accounting, dispatch correctness on
// every primitive, and close semantics.
func TestLeaseBasics(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	l := p.Lease(4)
	if got := l.Width(); got != 4 {
		t.Fatalf("Width() = %d, want 4", got)
	}

	want := 499 * 500 / 2
	if got := sumFor(l, 0, 500); got != want {
		t.Fatalf("For sum = %d, want %d", got, want)
	}

	var mu sync.Mutex
	seen := map[int]bool{}
	l.Run(4, func(w int) {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
	})
	if len(seen) != 4 {
		t.Fatalf("Run reached %d workers, want 4", len(seen))
	}

	parts := [][]float64{{1, 2}, {10, 20}, {100, 200}}
	got := l.ReduceSum(4, parts)
	if got[0] != 111 || got[1] != 222 {
		t.Fatalf("ReduceSum = %v, want [111 222]", got)
	}

	l.Close()
	l.Close() // idempotent
	l2 := p.Lease(8)
	if got := l2.Width(); got != 8 {
		t.Fatalf("post-release lease Width() = %d, want 8 (all workers back)", got)
	}
	l2.Close()
}

// TestLeaseRunWiderThanWidth pins the striding guarantee: a region
// logically wider than the granted goroutines still executes every
// logical worker exactly once.
func TestLeaseRunWiderThanWidth(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	l := p.Lease(2)
	defer l.Close()
	var mu sync.Mutex
	counts := make([]int, 6)
	l.Run(6, func(w int) {
		mu.Lock()
		counts[w]++
		mu.Unlock()
	})
	for w, c := range counts {
		if c != 1 {
			t.Fatalf("logical worker %d ran %d times, want 1", w, c)
		}
	}
}

// TestLeaseBestEffortAndResize: reservation under contention, then top-up
// after the contender releases.
func TestLeaseBestEffortAndResize(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	a := p.Lease(4) // takes workers 1..3
	b := p.Lease(4) // nothing free: runs caller-only
	if got := b.Width(); got != 1 {
		t.Fatalf("contended lease Width() = %d, want 1", got)
	}
	want := 99 * 100 / 2
	if got := sumFor(b, 0, 100); got != want {
		t.Fatalf("caller-only lease sum = %d, want %d", got, want)
	}
	a.Close()
	b.Resize(4)
	if got := b.Width(); got != 4 {
		t.Fatalf("after top-up: Width() = %d, want 4", got)
	}
	if got := sumFor(b, 0, 100); got != want {
		t.Fatalf("post-top-up sum = %d, want %d", got, want)
	}
	b.Close()
}

// TestLeaseTopUpOnEffective pins the kernel-entry top-up path: a lease
// granted width 1 under contention (whose regions therefore all run on
// the t == 1 inline paths and never dispatch) must still pick up workers
// freed by other leases the next time a kernel resolves its width.
func TestLeaseTopUpOnEffective(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	a := p.Lease(4)
	b := p.Lease(4) // contended: granted the caller slot only
	if got := b.Width(); got != 1 {
		t.Fatalf("contended Width() = %d, want 1", got)
	}
	a.Close()
	// No explicit Resize: the standing target (4) reconciles at the next
	// Effective resolution, i.e. the next kernel entry.
	if got := b.Effective(0); got != 4 {
		t.Fatalf("Effective(0) after contender closed = %d, want 4", got)
	}
	if got := b.Width(); got != 4 {
		t.Fatalf("Width() after top-up = %d, want 4", got)
	}
	b.Close()
}

// TestTypedNilExecutorFallsBack pins the historical optional-pool idiom:
// a nil *Pool stored in an Executor interface must resolve like a nil
// executor (default pool), not panic.
func TestTypedNilExecutorFallsBack(t *testing.T) {
	var p *Pool
	if got := EffectiveOn(p, 0); got != DefaultThreads() {
		t.Fatalf("EffectiveOn(typed nil, 0) = %d, want %d", got, DefaultThreads())
	}
	if got := OrDefault(p); got != Default() {
		t.Fatalf("OrDefault(typed-nil *Pool) = %v, want the default pool", got)
	}
	var l *Lease
	if got := OrDefault(l); got != Default() {
		t.Fatalf("OrDefault(typed-nil *Lease) = %v, want the default pool", got)
	}
	if got := OrDefault(nil); got != Default() {
		t.Fatalf("OrDefault(nil) = %v, want the default pool", got)
	}
}

// TestKeyedCacheBounded pins the shape-key cap: releases under keys beyond
// maxKeyedShapes are dropped instead of cached, so a pool serving an
// open-ended stream of shapes does not pin scratch forever.
func TestKeyedCacheBounded(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	for i := 0; i < maxKeyedShapes+8; i++ {
		ws := p.AcquireKeyed(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		ws.Release()
	}
	p.wsMu.Lock()
	n := len(p.keyed)
	p.wsMu.Unlock()
	if n > maxKeyedShapes {
		t.Fatalf("%d keyed lists cached, cap is %d", n, maxKeyedShapes)
	}
}

// TestLeasePanicSafety pins the serving-path panic contract: a body panic
// on any logical worker of a lease region — the coordinator or a reserved
// worker goroutine — surfaces as a panic on the dispatching goroutine,
// with the lease and pool still consistent (the next region runs fine).
func TestLeasePanicSafety(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	l := p.Lease(4)
	defer l.Close()
	want := 99 * 100 / 2
	for _, boom := range []int{0, 2} { // coordinator slot and a worker slot
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("panic on logical worker %d was swallowed", boom)
				}
			}()
			l.Run(4, func(w int) {
				if w == boom {
					panic("kernel bug")
				}
			})
		}()
		// The lease must still dispatch correctly after the unwind.
		if got := sumFor(l, 4, 100); got != want {
			t.Fatalf("after panic on worker %d: sum %d, want %d", boom, got, want)
		}
	}
}

// TestLeasesConcurrent runs many leases of one pool concurrently under
// continuous rebalancing; run with -race. Each lease's computation must
// stay correct while its width changes between regions.
func TestLeasesConcurrent(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	const nleases = 4
	const iters = 150
	want := 799 * 800 / 2
	leases := make([]*Lease, nleases)
	for i := range leases {
		leases[i] = p.Lease(2)
	}
	var wg sync.WaitGroup
	for i, l := range leases {
		wg.Add(1)
		go func(i int, l *Lease) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				if got := sumFor(l, 0, 800); got != want {
					t.Errorf("lease %d iter %d: sum %d, want %d", i, k, got, want)
					return
				}
			}
		}(i, l)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < iters; k++ {
			for _, l := range leases {
				l.Resize(1 + k%4)
			}
		}
	}()
	wg.Wait()
	for _, l := range leases {
		l.Close()
	}
	if p.nleased != 0 {
		t.Fatalf("%d workers still leased after close", p.nleased)
	}
}

// TestWorkspaceKeyedCache pins that keyed acquisition returns the same
// workspace for the same key and distinct workspaces across keys.
func TestWorkspaceKeyedCache(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	a := p.AcquireKeyed("shapeA")
	a.Arena(0).Float64("probe", 8)[0] = 42
	a.Release()
	b := p.AcquireKeyed("shapeB")
	if b == a {
		t.Fatal("different keys shared a workspace")
	}
	b.Release()
	a2 := p.AcquireKeyed("shapeA")
	if a2 != a {
		t.Fatal("same key did not reuse the cached workspace")
	}
	if got := a2.Arena(0).Float64("probe", 8)[0]; got != 42 {
		t.Fatalf("cached arena contents lost: %v", got)
	}
	a2.Release()

	// Leases route acquisition through their workspace key.
	l := p.Lease(2)
	defer l.Close()
	l.SetWorkspaceKey("shapeA")
	w := l.Acquire()
	if w != a {
		t.Fatal("lease with key did not get the key's cached workspace")
	}
	w.Release()
}

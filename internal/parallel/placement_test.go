package parallel

import (
	"sync"
	"testing"
)

// slotsInDomain counts how many of the lease's reserved slots sit in the
// given placement domain.
func slotsInDomain(p *Pool, l *Lease, d int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.slots {
		if p.topo.SlotDomain(s.id) == d {
			n++
		}
	}
	return n
}

// TestPlacementSingleDomainIsFlat pins the fallback contract: a nil or
// single-domain topology yields a flat pool — the non-NUMA path must be
// byte-for-byte the historical slot model.
func TestPlacementSingleDomainIsFlat(t *testing.T) {
	for _, topo := range []*Topology{nil, singleDomain(4)} {
		p := NewPoolPlaced(4, topo)
		if p.placed() {
			t.Fatalf("pool with topo %v reports placed", topo)
		}
		l := p.Lease(3)
		if l.Domain() != 0 {
			t.Fatalf("flat lease domain = %d, want 0", l.Domain())
		}
		want := 49 * 50 / 2
		if got := sumFor(l, 3, 50); got != want {
			t.Fatalf("lease sum = %d, want %d", got, want)
		}
		l.Close()
		p.Close()
	}
}

// TestPlacementReserveBestFit pins the home-domain policy on an asymmetric
// machine ("0-1;2-5": a 2-CPU and a 4-CPU domain, pool width 7 → slots
// {1,6} in domain 0 and {2,3,4,5} in domain 1): best fit picks the
// tightest domain that covers the request, then the fullest, and
// reservation stays best-effort.
func TestPlacementReserveBestFit(t *testing.T) {
	topo := mustTopo(t, "0-1;2-5")
	p := NewPoolPlaced(7, topo)
	defer p.Close()

	lA := p.Lease(3) // needs 2: domain 0 (2 free) is the tighter fit than domain 1 (4 free)
	if lA.Domain() != 0 || lA.Width() != 3 {
		t.Fatalf("lease A: domain %d width %d, want domain 0 width 3", lA.Domain(), lA.Width())
	}
	if got := slotsInDomain(p, lA, 0); got != 2 {
		t.Fatalf("lease A holds %d domain-0 slots, want 2", got)
	}

	lB := p.Lease(4) // needs 3: only domain 1 fits
	if lB.Domain() != 1 || lB.Width() != 4 {
		t.Fatalf("lease B: domain %d width %d, want domain 1 width 4", lB.Domain(), lB.Width())
	}

	lC := p.Lease(3) // needs 2, one slot left anywhere: narrower grant, home = fullest
	if lC.Domain() != 1 || lC.Width() != 2 {
		t.Fatalf("lease C: domain %d width %d, want domain 1 width 2 (best effort)", lC.Domain(), lC.Width())
	}

	sum := 0
	for _, l := range []*Lease{lA, lB, lC} {
		sum += sumFor(l, l.Width(), 40)
		l.Close()
	}
	if want := 3 * (39 * 40 / 2); sum != want {
		t.Fatalf("lease sums = %d, want %d", sum, want)
	}
}

// TestPlacementShrinkReleasesSpillFirst pins the shrink policy: a spilled
// lease that shrinks gives back its off-domain slots before any
// home-domain slot.
func TestPlacementShrinkReleasesSpillFirst(t *testing.T) {
	topo := mustTopo(t, "0-1;2-3") // width 5 → slots {1,4} in domain 0, {2,3} in domain 1
	p := NewPoolPlaced(5, topo)
	defer p.Close()

	l := p.Lease(5) // takes the whole team: home 0 + both domain-1 slots spilled
	if l.Domain() != 0 || l.Width() != 5 {
		t.Fatalf("lease: domain %d width %d, want domain 0 width 5", l.Domain(), l.Width())
	}
	l.Resize(3)
	if got := slotsInDomain(p, l, 0); got != 2 {
		t.Fatalf("after shrink: %d home slots, want 2 (off-domain released first)", got)
	}
	if got := slotsInDomain(p, l, 1); got != 0 {
		t.Fatalf("after shrink: still holding %d spilled slots", got)
	}

	l2 := p.Lease(3) // the released spill slots are whole again: domain 1 fits
	if l2.Domain() != 1 || l2.Width() != 3 {
		t.Fatalf("lease 2: domain %d width %d, want domain 1 width 3", l2.Domain(), l2.Width())
	}
	l2.Close()
	l.Close()
}

// TestPlacementRetargetMigration drives the full migration story: a lease
// forced to spill off its home domain migrates home at Reconcile — the
// phase-boundary retarget — once the home domain frees up, and never
// mid-region.
func TestPlacementRetargetMigration(t *testing.T) {
	topo := mustTopo(t, "0-3;4-5") // width 7 → slots {1,2,3,6} in domain 0, {4,5} in domain 1
	p := NewPoolPlaced(7, topo)
	defer p.Close()

	lBlock := p.Lease(5) // fits domain 0 exactly
	if lBlock.Domain() != 0 {
		t.Fatalf("block lease domain = %d, want 0", lBlock.Domain())
	}
	lHalf := p.Lease(2) // domain 1 is all that's left
	if lHalf.Domain() != 1 {
		t.Fatalf("half lease domain = %d, want 1", lHalf.Domain())
	}
	lSpill := p.Lease(3) // wants 2, gets the last domain-1 slot
	if lSpill.Domain() != 1 || lSpill.Width() != 2 {
		t.Fatalf("spill lease: domain %d width %d, want domain 1 width 2", lSpill.Domain(), lSpill.Width())
	}

	// Domain 0 frees; the under-granted lease tops up, but its home domain
	// is still full — the new slot is a spill.
	lBlock.Close()
	if got := lSpill.Reconcile(); got != 3 {
		t.Fatalf("Reconcile after top-up = %d, want 3", got)
	}
	if got := slotsInDomain(p, lSpill, 0); got != 1 {
		t.Fatalf("spill lease holds %d domain-0 slots, want 1 (home still full)", got)
	}

	// Now the home domain frees: the next phase boundary migrates the
	// spilled slot home. Width is unchanged — migration moves the physical
	// worker, not the budget.
	lHalf.Close()
	if got := lSpill.Reconcile(); got != 3 {
		t.Fatalf("Reconcile after migration = %d, want 3", got)
	}
	if got := slotsInDomain(p, lSpill, 1); got != 2 {
		t.Fatalf("spill lease holds %d home slots after migration, want 2", got)
	}
	if got := slotsInDomain(p, lSpill, 0); got != 0 {
		t.Fatalf("spill lease still holds %d off-domain slots after migration", got)
	}

	// The abandoned domain-0 slot is back in the pool.
	lAfter := p.Lease(5)
	if lAfter.Domain() != 0 || lAfter.Width() != 5 {
		t.Fatalf("post-migration lease: domain %d width %d, want domain 0 width 5", lAfter.Domain(), lAfter.Width())
	}

	want := 29 * 30 / 2
	if got := sumFor(lSpill, 3, 30); got != want {
		t.Fatalf("migrated lease sum = %d, want %d", got, want)
	}
	lAfter.Close()
	lSpill.Close()
}

// TestPlacementFirstTouchArena pins the buffer-placement rule: arenas of
// placed pools first-touch grown buffers (the stores are semantic no-ops,
// so contents stay zero), arenas of flat pools do not.
func TestPlacementFirstTouchArena(t *testing.T) {
	placed := NewPoolPlaced(3, mustTopo(t, "0-1;2-3"))
	defer placed.Close()
	flat := NewPool(3)
	defer flat.Close()

	wsP := placed.Acquire()
	wsF := flat.Acquire()
	defer wsP.Release()
	defer wsF.Release()

	if !wsP.Arena(0).firstTouch || !wsP.PlanArena().firstTouch {
		t.Fatal("placed pool arenas must first-touch")
	}
	if wsF.Arena(0).firstTouch || wsF.PlanArena().firstTouch {
		t.Fatal("flat pool arenas must not first-touch")
	}

	// Growth inside a placed region: every page touched, contents zero,
	// reuse hands the same backing array back. Arena slots are materialized
	// before the dispatch (the Workspace contract: worker w owns arena w
	// during a region, but the arena list itself is the coordinator's).
	wsP.Arena(2)
	placed.Run(3, func(w int) {
		a := wsP.Arena(w)
		s := a.Float64("probe", 3*pageBytes)
		for i, v := range s {
			if v != 0 {
				t.Errorf("worker %d: s[%d] = %g after first-touch, want 0", w, i, v)
				break
			}
		}
		s[0] = float64(w + 1)
		is := a.Ints("probe", 2*pageBytes)
		if is[0] != 0 {
			t.Errorf("worker %d: int scratch not zero", w)
		}
	})
	placed.Run(3, func(w int) {
		s := wsP.Arena(w).Float64("probe", 3*pageBytes)
		if s[0] != float64(w+1) {
			t.Errorf("worker %d: arena did not reuse its buffer (s[0] = %g)", w, s[0])
		}
	})
}

// TestPlacementWorkerPinning checks that placed workers actually carry
// their domain's CPU affinity. Pinning is best-effort (non-linux hosts and
// restricted sandboxes refuse sched_setaffinity), so the test first probes
// whether affinity control works at all and skips if not.
func TestPlacementWorkerPinning(t *testing.T) {
	host := threadAffinity()
	if len(host) < 2 {
		t.Skipf("host exposes %d usable CPUs; need 2 to observe placement", len(host))
	}
	// Probe: can this process pin a thread at all?
	probe := make(chan bool, 1)
	go func() { probe <- pinThread(host[:1]) }()
	if !<-probe {
		t.Skip("sched_setaffinity unavailable; pinning is best-effort")
	}

	half := len(host) / 2
	topo, err := newTopology([][]int{host[:half], host[half:]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolPlaced(topo.CPUs()+1, topo)
	defer p.Close()

	allowed := make(map[int]int) // CPU id → owning domain
	for d := 0; d < topo.Domains(); d++ {
		for _, c := range topo.DomainCPUs(d) {
			allowed[c] = d
		}
	}
	type miss struct{ w, cpu, dom int }
	var mu sync.Mutex
	var misses []miss
	p.Run(topo.CPUs()+1, func(w int) {
		if w == 0 {
			return // the caller slot is never pinned
		}
		dom := p.SlotDomain(w)
		for _, cpu := range threadAffinity() {
			if allowed[cpu] != dom {
				mu.Lock()
				misses = append(misses, miss{w, cpu, dom})
				mu.Unlock()
			}
		}
	})
	if len(misses) > 0 {
		t.Fatalf("workers running outside their domain: %v", misses)
	}
}

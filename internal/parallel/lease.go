package parallel

import (
	"sync"
	"sync/atomic"
)

// Executor is the execution context kernels run on: either a *Pool (a
// whole worker team) or a *Lease (a scheduler-granted slice of one).
// Kernel entry points accept an Executor so that the same code serves both
// a caller that owns a full pool and a request admitted by a serving
// scheduler under a worker budget.
type Executor interface {
	// Effective resolves a requested worker count t to the width a
	// dispatch on this executor actually uses (see the package-level
	// Effective; leases cap the result at their granted width). Kernels
	// must size per-worker state with this resolution so that buffers and
	// dispatch agree on the worker count.
	Effective(t int) int
	// Workers is the executor's natural dispatch width.
	Workers() int
	// Run launches t copies of body, one per logical worker, and waits.
	Run(t int, body func(worker int))
	// For executes body over [0, n) with t workers under the static block
	// schedule.
	For(t, n int, body func(worker, lo, hi int))
	// ReduceSum accumulates parts[1:] into parts[0] in parallel.
	ReduceSum(t int, parts [][]float64) []float64
	// Acquire leases a reusable Workspace; pair with Release.
	Acquire() *Workspace
}

var (
	_ Executor = (*Pool)(nil)
	_ Executor = (*Lease)(nil)
)

// leaseSlot is one parent-pool worker reserved by a lease: its slot id
// (for returning the reservation) and its channel, snapshotted at reserve
// time so lease dispatches never read the parent's growing chans slice.
type leaseSlot struct {
	id int
	ch chan job
}

// Lease is a scheduler-granted slice of a parent Pool: a dispatch context
// that executes on up to Width()-1 reserved parent workers plus the
// calling goroutine. Leases exist so that concurrent requests share one
// persistent worker team instead of each spinning its own pool — an
// admission policy hands every active request a lease sized to its worker
// budget, and resizes the leases as requests arrive and finish.
//
// Width semantics differ from a Pool in one deliberate way: a Lease caps
// dispatch width. Effective(t) resolves t <= 0 (and any t beyond the
// budget) to the granted width, so kernels that run with Threads = 0
// automatically use exactly their budget. A region dispatched with a
// logical width wider than the granted goroutines still executes every
// logical worker — physical workers stride over the extra logical indices
// — so a concurrent shrink between width resolution and dispatch never
// loses work.
//
// Like a Pool, a lease executes one region at a time; concurrent
// dispatches serialize on the lease mutex. Distinct leases of one parent
// dispatch concurrently — that is the point.
type Lease struct {
	parent *Pool
	target atomic.Int32 // desired width (including the caller slot 0)
	width  atomic.Int32 // granted width: 1 + len(slots)
	mu     sync.Mutex   // serializes dispatches and reservation changes
	slots  []leaseSlot
	wg     sync.WaitGroup
	perr   atomic.Pointer[any] // first worker panic of the current region
	wsKey  string              // workspace shape key ("" = the pool's general list)
	domain int                 // home placement domain (0 on flat pools)
	closed bool
}

// Lease reserves up to width-1 of the pool's persistent workers as a
// dedicated execution context (width <= 0 asks for Effective(0)).
// Reservation is best-effort: if fewer workers are currently unreserved,
// the lease starts narrower and tops up — at Resize, or at the next
// dispatch after other leases release workers. On a placed pool the
// reservation prefers a single placement domain — the lease's home domain
// — spilling into other domains only when the home cannot cover the
// width. Close the lease to return its workers.
func (p *Pool) Lease(width int) *Lease {
	width = Effective(width)
	l := &Lease{parent: p}
	l.target.Store(int32(width))
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("parallel: Lease on a closed Pool")
	}
	l.slots, l.domain = p.reserveLocked(width-1, -1)
	p.mu.Unlock()
	l.width.Store(int32(1 + len(l.slots)))
	return l
}

// Domain returns the lease's home placement domain — the domain its slot
// reservation packs into first. Flat pools have a single implicit domain 0.
func (l *Lease) Domain() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.domain
}

// Width returns the currently granted dispatch width (reserved workers
// plus the caller slot).
func (l *Lease) Width() int { return int(l.width.Load()) }

// Workers is the executor's natural dispatch width: the granted width,
// after reconciling any pending budget change.
func (l *Lease) Workers() int {
	l.reconcile()
	return l.Width()
}

// Effective resolves a requested worker count for this lease: any t <= 0
// or t beyond the granted width resolves to the width, so a kernel
// running with Threads = 0 uses exactly its budget. Resolution first
// reconciles the reservation with the target, so a kernel entering after
// a rebalance sizes its per-worker state for the new budget — this is
// what lets an under-granted lease (even one running entirely on the
// t == 1 inline paths, which never reach dispatch) pick up workers freed
// by other requests.
func (l *Lease) Effective(t int) int {
	l.reconcile()
	w := l.Width()
	if t <= 0 || t > w {
		return w
	}
	return t
}

// reconcile applies a pending Resize if the lease is idle; mid-region the
// change waits for the next boundary (dispatch reconciles too).
func (l *Lease) reconcile() {
	if int(l.target.Load()) == l.Width() {
		return
	}
	if l.mu.TryLock() {
		if !l.closed {
			l.applyTargetLocked()
		}
		l.mu.Unlock()
	}
}

// Resize sets the lease's target width (the admission policy's budget for
// this request). Shrinking releases workers back to the parent; growing
// re-reserves best-effort. Safe to call concurrently with dispatches: if
// the lease is mid-region the change applies at the next region boundary.
func (l *Lease) Resize(width int) {
	l.target.Store(int32(Effective(width)))
	l.reconcile()
}

// Reconcile applies any pending budget change (a Resize issued by the
// admission policy while this lease was mid-region) and returns the
// granted width. It is the phase-boundary hook of the serving stack:
// CP-ALS calls it between sweeps and the MTTKRP drivers between mode
// computations (via core.Options.PhaseNotify), so a scheduler can shrink
// or grow a running request's worker budget at a safe point instead of
// only between requests. Unlike the opportunistic reconciliation inside
// Effective (which TryLocks and gives up under contention), Reconcile
// blocks until the lease is idle, so the pending target is guaranteed
// applied when it returns.
//
// On a placed pool, Reconcile is also the migration point: any slot the
// lease holds outside its home domain is swapped for a slot the home
// domain has freed since — so a lease that started spilled (or was
// displaced by a rebalance) drifts back onto one socket at the next phase
// boundary rather than mid-region. Migration moves work between physical
// workers only; logical worker indices, and therefore results, are
// untouched.
//
// It must be called from the lease's dispatching goroutine (or with no
// region in flight); calling it from inside a region body would deadlock
// like any other dispatch.
func (l *Lease) Reconcile() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 1
	}
	l.applyTargetLocked()
	l.migrateLocked()
	return 1 + len(l.slots)
}

// applyTargetLocked reconciles the reservation with the target width. On
// a placed pool, growth asks for slots near the home domain (re-choosing
// the home if the lease currently holds nothing) and shrinking releases
// off-domain slots first, so budget churn tightens placement instead of
// shuffling it. Callers hold l.mu.
func (l *Lease) applyTargetLocked() {
	want := int(l.target.Load()) - 1
	if want < 0 {
		want = 0
	}
	p := l.parent
	p.mu.Lock()
	if len(l.slots) > want {
		if p.placed() {
			l.packSlotsLocked()
		}
		p.releaseLocked(l.slots[want:])
		l.slots = l.slots[:want]
	} else if len(l.slots) < want {
		home := l.domain
		if p.placed() && len(l.slots) == 0 {
			home = -1 // nothing held: let the pool pick the best home now
		}
		slots, dom := p.reserveLocked(want-len(l.slots), home)
		l.slots = append(l.slots, slots...)
		l.domain = dom
	}
	p.mu.Unlock()
	l.width.Store(int32(1 + len(l.slots)))
}

// packSlotsLocked stably reorders the lease's slots so home-domain slots
// come first; the shrink path then releases the off-domain tail. Slot
// order only decides which physical worker serves which logical index, so
// reordering between regions cannot change results. Callers hold l.mu and
// l.parent.mu.
func (l *Lease) packSlotsLocked() {
	p := l.parent
	kept := make([]leaseSlot, 0, len(l.slots))
	var off []leaseSlot
	for _, s := range l.slots {
		if p.topo.SlotDomain(s.id) == l.domain {
			kept = append(kept, s)
		} else {
			off = append(off, s)
		}
	}
	l.slots = append(kept, off...)
}

// migrateLocked retargets the lease toward its home domain: each slot held
// outside the home is exchanged for a free home-domain slot, if the home
// has any. Callers hold l.mu.
func (l *Lease) migrateLocked() {
	p := l.parent
	if !p.placed() {
		return
	}
	p.mu.Lock()
	for i := range l.slots {
		if p.topo.SlotDomain(l.slots[i].id) == l.domain {
			continue
		}
		t, ok := p.reserveOneInDomainLocked(l.domain)
		if !ok {
			break // home domain full: keep the spilled slots for now
		}
		p.releaseLocked(l.slots[i : i+1])
		l.slots[i] = t
	}
	// Home slots lead the slice after a migration so a dispatch narrower
	// than the reservation (which uses the slot prefix) stays domain-local.
	l.packSlotsLocked()
	p.mu.Unlock()
}

// Close releases the lease's workers back to the parent pool. The lease
// must be idle; any later dispatch panics. Close is idempotent.
func (l *Lease) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	p := l.parent
	p.mu.Lock()
	p.releaseLocked(l.slots)
	p.mu.Unlock()
	l.slots = nil
	l.width.Store(1)
}

// SetWorkspaceKey routes this lease's workspace acquisition to the pool's
// free list for the given shape key ("" restores the general list). A
// serving batcher sets the batch's shape key before executing its
// requests, so every same-shape request reuses one warmed workspace set —
// buffers and kernel frames already sized for the shape — no matter which
// lease runs it. Must not be called concurrently with kernels executing
// on the lease.
func (l *Lease) SetWorkspaceKey(key string) { l.wsKey = key }

// Acquire leases a workspace from the parent pool's cache, keyed by the
// lease's workspace key (see SetWorkspaceKey).
func (l *Lease) Acquire() *Workspace { return l.parent.AcquireKeyed(l.wsKey) }

// dispatch runs one region on the lease: up to Width()-1 reserved workers
// plus the calling goroutine, with logical indices strided when the
// region is logically wider than the granted goroutines. A pending Resize
// is applied first, so budget changes take effect at region boundaries.
//
// Dispatch is panic-safe in both directions, because a serving scheduler
// feeds leases caller-supplied data: a worker-side body panic is captured
// and rethrown here after the barrier, and a coordinator-side panic still
// drains the barrier and releases the region mutex on the way out — either
// way the panic surfaces on the dispatching goroutine with the lease
// consistent, where the serving layer recovers it into the request's
// ticket.
//
//mttkrp:noalloc
func (l *Lease) dispatch(j job) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		panic("parallel: dispatch on a closed Lease")
	}
	if int(l.target.Load()) != 1+len(l.slots) {
		l.applyTargetLocked()
	}
	pw := 1 + len(l.slots)
	if pw > j.t {
		pw = j.t
	}
	l.perr.Store(nil)
	j.perr = &l.perr
	j.stride = pw
	j.wg = &l.wg
	l.wg.Add(pw - 1)
	for w := 1; w < pw; w++ {
		j.widx = w
		l.slots[w-1].ch <- j
	}
	defer l.wg.Wait() // barrier completes even if worker 0 panics
	j.widx = 0
	j.run()
	l.wg.Wait()
	if pv := l.perr.Load(); pv != nil {
		panic(*pv)
	}
}

// Run launches t copies of body (t <= 0 selects the granted width) and
// waits. All t logical workers execute even if the lease currently holds
// fewer goroutines.
//
//mttkrp:noalloc
func (l *Lease) Run(t int, body func(worker int)) {
	if t <= 0 {
		t = l.Effective(0)
	}
	if t == 1 {
		body(0)
		return
	}
	l.dispatch(job{kind: jobRun, body1: body, t: t})
}

// For executes body over [0, n) with t workers under the static block
// schedule (t <= 0 selects the granted width).
//
//mttkrp:noalloc
func (l *Lease) For(t, n int, body func(worker, lo, hi int)) {
	if t <= 0 {
		t = l.Effective(0)
	}
	t = Clamp(t, n)
	if n <= 0 {
		return
	}
	if t == 1 {
		body(0, 0, n)
		return
	}
	l.dispatch(job{kind: jobFor, body3: body, n: n, t: t})
}

// ReduceSum accumulates parts[1:] into parts[0] in parallel on the lease
// and returns parts[0]. Semantics match Pool.ReduceSum.
//
//mttkrp:noalloc
func (l *Lease) ReduceSum(t int, parts [][]float64) []float64 {
	dst, seq := checkReduceParts(parts)
	if dst == nil {
		return nil
	}
	if t <= 0 {
		t = l.Effective(0)
	}
	t = Clamp(t, len(dst))
	if seq || t == 1 {
		return reduceSeq(parts)
	}
	l.dispatch(job{kind: jobReduce, parts: parts, t: t})
	return dst
}

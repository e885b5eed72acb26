package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simd"
)

// Pool is a persistent fork-join worker team, the goroutine analogue of an
// OpenMP thread pool. Workers are spawned once and then sleep on per-worker
// channels between parallel regions, so a kernel that issues thousands of
// For/Run dispatches per second (CP-ALS does) pays no goroutine-creation
// cost in steady state. The calling goroutine always acts as worker 0, so a
// dispatch of width t wakes only t-1 workers.
//
// A pool executes one parallel region at a time: concurrent dispatches from
// different goroutines serialize on an internal mutex. Bodies must not
// dispatch on the pool that is executing them (that would deadlock);
// sequential helpers such as blas.GemmArena exist for exactly that reason.
// Concurrent requests that each want full parallelism should use one Pool
// per request.
//
// Pools also own reusable Workspaces (see Acquire), so the scratch memory
// of a kernel survives across calls and steady-state execution allocates
// nothing.
type Pool struct {
	mu      sync.Mutex // serializes dispatches, worker growth and leasing
	chans   []chan job // chans[w] feeds persistent worker w (w ≥ 1); chans[0] is nil
	leased  []bool     // leased[w]: worker w is reserved by an active Lease
	nleased int
	wg      sync.WaitGroup
	closed  bool

	wsMu  sync.Mutex
	free  []*Workspace
	keyed map[string][]*Workspace // shape-keyed free lists (see AcquireKeyed)
}

// jobKind selects the worker-side interpretation of a job.
type jobKind uint8

const (
	jobRun jobKind = iota
	jobFor
	jobReduce
)

// job describes one parallel region. It is passed by value over the worker
// channels so dispatching allocates nothing.
//
// A region has t logical workers but may execute on fewer goroutines: each
// job copy carries the physical worker's starting logical index (widx) and
// the physical width (stride), and executes logical workers widx,
// widx+stride, widx+2·stride, … < t in sequence. A pool dispatch always
// uses stride == t (one logical worker per goroutine, the classic case); a
// Lease narrower than the logical width strides, preserving the t-worker
// semantics — every logical index runs, per-worker buffers indexed by the
// logical id stay disjoint — on fewer goroutines.
type job struct {
	kind   jobKind
	body1  func(worker int)
	body3  func(worker, lo, hi int)
	n      int
	t      int // logical width of the region
	widx   int // this copy's first logical worker index
	stride int // physical width: distance between owned logical indices
	parts  [][]float64
	wg     *sync.WaitGroup
	perr   *atomic.Pointer[any] // lease dispatches: first worker panic, rethrown at the barrier
}

// run executes every logical worker owned by this job copy.
//
//mttkrp:noalloc
func (j *job) run() {
	for w := j.widx; w < j.t; w += j.stride {
		j.exec(w)
	}
}

// exec executes logical worker w of the region.
//
//mttkrp:noalloc
func (j *job) exec(w int) {
	switch j.kind {
	case jobRun:
		j.body1(w)
	case jobFor:
		lo, hi := BlockRange(j.n, j.t, w)
		if lo < hi {
			j.body3(w, lo, hi)
		}
	case jobReduce:
		dst := j.parts[0]
		lo, hi := BlockRange(len(dst), j.t, w)
		for _, p := range j.parts[1:] {
			simd.Add(p[lo:hi], dst[lo:hi])
		}
	}
}

// BlockRange returns the half-open range [lo, hi) of worker w under the
// static block schedule that Split uses: t contiguous ranges over [0, n)
// whose sizes differ by at most one. It is the allocation-free form of
// Split(n, t)[w].
//
//mttkrp:noalloc
func BlockRange(n, t, w int) (lo, hi int) {
	base := n / t
	rem := n % t
	lo = w * base
	if w < rem {
		lo += w
	} else {
		lo += rem
	}
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// NewPool creates a pool with the given number of persistent workers;
// workers <= 0 selects DefaultThreads. The pool can still execute wider
// dispatches: it grows (spawning more persistent workers) on demand.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultThreads()
	}
	p := &Pool{chans: make([]chan job, 1, workers)} // slot 0: the caller
	p.mu.Lock()
	p.grow(workers)
	p.mu.Unlock()
	return p
}

var defaultPool struct {
	once sync.Once
	p    *Pool
}

// Default returns the lazily-created process-wide pool used by the
// package-level For, Run and ReduceSum wrappers. It is sized to
// DefaultThreads and never closed.
func Default() *Pool {
	defaultPool.once.Do(func() { defaultPool.p = NewPool(0) })
	return defaultPool.p
}

// Workers returns the current team width (persistent workers plus the
// caller slot 0); it is the natural dispatch width of the pool. Note that
// the team is not a cap: a dispatch with t = 0 resolves to Effective(0) =
// GOMAXPROCS regardless of the current team size, growing the team on
// demand (TestEffectiveResolution pins this relationship).
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.chans)
}

// Effective resolves a requested dispatch width for this pool: the global
// Effective rule (non-positive t selects GOMAXPROCS). The current team
// size never caps the result — the pool grows on demand.
func (p *Pool) Effective(t int) int { return Effective(t) }

// reserveLocked marks up to k unleased persistent workers as reserved by a
// lease, scanning slots in order, and returns them. Reservation is
// best-effort within the current team: leases never grow the team (a wider
// pool dispatch grows it). Callers hold p.mu.
func (p *Pool) reserveLocked(k int) []leaseSlot {
	for len(p.leased) < len(p.chans) {
		p.leased = append(p.leased, false)
	}
	var out []leaseSlot
	for w := 1; w < len(p.chans) && len(out) < k; w++ {
		if !p.leased[w] {
			p.leased[w] = true
			p.nleased++
			out = append(out, leaseSlot{id: w, ch: p.chans[w]})
		}
	}
	return out
}

// releaseLocked returns reserved slots to the pool. Callers hold p.mu.
func (p *Pool) releaseLocked(slots []leaseSlot) {
	for _, s := range slots {
		p.leased[s.id] = false
		p.nleased--
	}
}

// grow ensures the pool has at least t worker slots. Callers hold p.mu.
func (p *Pool) grow(t int) {
	if p.closed {
		panic("parallel: dispatch on a closed Pool")
	}
	for len(p.chans) < t {
		ch := make(chan job, 1)
		p.chans = append(p.chans, ch)
		go workerLoop(ch)
	}
}

// workerLoop is the body of one persistent worker goroutine. The logical
// worker indices to execute travel inside the job (widx/stride), so the
// same persistent worker can serve pool dispatches and lease dispatches
// under whatever logical id the region assigned it.
func workerLoop(ch chan job) {
	for j := range ch {
		runWorkerJob(&j)
		j.wg.Done()
	}
}

// runWorkerJob executes a job copy on a worker goroutine. Lease dispatches
// (j.perr != nil) capture a body panic instead of crashing the process —
// the coordinator rethrows it after the barrier, where the serving layer
// recovers it into the request's ticket. Pool dispatches keep the
// historical fail-fast behavior: a worker panic is a program bug and
// crashes.
func runWorkerJob(j *job) {
	if j.perr == nil {
		j.run()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			v := r
			j.perr.CompareAndSwap(nil, &v) // keep the first panic
		}
	}()
	j.run()
}

// dispatch fans the job out to workers 1..t-1, runs worker 0 on the calling
// goroutine, and waits for the barrier. The pool mutex is held for the
// whole region, serializing overlapping dispatches. Workers reserved by a
// Lease are still part of the team here — dispatching directly on a pool
// with outstanding leases is memory-safe but contends with the lease
// holders for those workers; a serving scheduler that leases a pool out
// should own it exclusively.
//
//mttkrp:noalloc
func (p *Pool) dispatch(j job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grow(j.t)
	j.stride = j.t
	p.wg.Add(j.t - 1)
	j.wg = &p.wg
	for w := 1; w < j.t; w++ {
		j.widx = w
		p.chans[w] <- j
	}
	// The barrier must complete even if worker 0's body panics (the
	// deferred Wait runs before the mutex release): the region's workers
	// drain, the pool stays consistent, and the panic propagates to the
	// dispatching caller.
	defer p.wg.Wait()
	j.widx = 0
	j.run()
}

// Close terminates the persistent workers and drops the pool's cached
// workspaces (releasing their arena memory to the garbage collector). The
// pool must be idle and all leases closed; any later dispatch panics.
// Closing the default pool is not allowed.
func (p *Pool) Close() {
	if p == defaultPool.p {
		panic("parallel: cannot close the default pool")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nleased > 0 {
		panic("parallel: Close with outstanding leases")
	}
	p.wsMu.Lock()
	p.free = nil // drop cached workspaces so their arenas can be collected
	p.keyed = nil
	p.wsMu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.chans[1:] {
		close(ch)
	}
	p.chans = p.chans[:1]
}

// Run launches t copies of body, one per worker, and waits — the "parallel
// region" primitive, identical in semantics to the package-level Run but
// executed on the pool's persistent workers.
//
//mttkrp:noalloc
func (p *Pool) Run(t int, body func(worker int)) {
	t = Effective(t)
	if t == 1 {
		body(0)
		return
	}
	p.dispatch(job{kind: jobRun, body1: body, t: t})
}

// For executes body over [0, n) with t workers, each owning one contiguous
// block (the static schedule of Split). With t == 1 the body runs inline on
// the calling goroutine.
//
//mttkrp:noalloc
func (p *Pool) For(t, n int, body func(worker, lo, hi int)) {
	t = Clamp(t, n)
	if n <= 0 {
		return
	}
	if t == 1 {
		body(0, 0, n)
		return
	}
	p.dispatch(job{kind: jobFor, body3: body, n: n, t: t})
}

// ReduceSum accumulates parts[1:] into parts[0] in parallel and returns
// parts[0]. All buffers must have equal length; a mismatch panics up front
// rather than corrupting data mid-reduction.
//
//mttkrp:noalloc
func (p *Pool) ReduceSum(t int, parts [][]float64) []float64 {
	dst, seq := checkReduceParts(parts)
	if dst == nil {
		return nil
	}
	t = Clamp(t, len(dst))
	if seq || t == 1 {
		return reduceSeq(parts)
	}
	p.dispatch(job{kind: jobReduce, parts: parts, t: t})
	return dst
}

// checkReduceParts validates that every reduction buffer matches parts[0]
// in length, returning parts[0] (nil when parts is empty) and whether the
// reduction needs no dispatch at all.
func checkReduceParts(parts [][]float64) (dst []float64, seq bool) {
	if len(parts) == 0 {
		return nil, true
	}
	dst = parts[0]
	for i, q := range parts[1:] {
		if len(q) != len(dst) {
			panic(fmt.Sprintf("parallel: ReduceSum buffer %d has length %d, want %d", i+1, len(q), len(dst)))
		}
	}
	return dst, len(parts) == 1 || len(dst) == 0
}

// reduceSeq performs the reduction sequentially on the calling goroutine.
//
//mttkrp:noalloc
func reduceSeq(parts [][]float64) []float64 {
	dst := parts[0]
	for _, q := range parts[1:] {
		simd.Add(q, dst)
	}
	return dst
}

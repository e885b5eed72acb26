package serve

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/krp"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config sizes a Server.
type Config struct {
	// Workers is the total team width of the server's pool (caller slots
	// included); 0 selects GOMAXPROCS.
	Workers int
	// MinWorkers is the admission policy's per-request floor; requests
	// never run narrower than this budget. Default 1.
	MinWorkers int
	// MaxActive caps concurrently executing requests (batches); further
	// requests queue. 0 selects Workers / MinWorkers — the widest
	// concurrency at which every active request can still hold its floor.
	MaxActive int
	// DisableBatching turns off same-shape MTTKRP coalescing; every
	// request becomes its own batch.
	DisableBatching bool
	// MaxBatch caps the requests one batch may coalesce; a full batch
	// stops accepting joiners and the next same-key arrival opens a
	// fresh one. The cap is what keeps the aging queue's starvation
	// bound real: a batch's score divides by its total service estimate
	// (cost × members), so an uncapped batch fed by a steady joiner
	// stream would plateau instead of aging upward, starving its
	// earliest members behind fresh traffic. With the cap, a queued
	// batch waits at most ~MaxBatch · costRatio · AgeBias behind
	// continuous arrivals. It also bounds the batch's non-preemptible
	// back-to-back service time on one lease. 0 selects 32.
	MaxBatch int
	// DisableFusion turns off batch-level KRP fusion: coalesced batches
	// run back-to-back recomputing their Khatri-Rao intermediates per
	// member (the pre-fusion behavior, kept as the measured baseline).
	// With fusion on (the default), every MTTKRP request carries a value
	// fingerprint of the non-target factor set; batches still coalesce
	// by shape alone (the lease/workspace amortization win is
	// factor-independent), and the batch executor builds a shared KRP
	// plan when at least two members fingerprint alike — only genuinely
	// fusable members consume it (per-member value matching), the rest
	// compute their own KRP exactly as before.
	DisableFusion bool

	// MaxShare caps one request's share of the pool width under
	// cost-aware admission (0 < MaxShare ≤ 1; 0 selects 1, i.e. no cap
	// below the full width). The cap applies unconditionally — a lone
	// request on an idle server is capped too — so a MaxShare below 1
	// deliberately reserves warm headroom for the next arrival at the
	// price of single-tenant throughput.
	MaxShare float64
	// AgeBias is the virtual head start every queued request gets in the
	// aging score score = weight · (age + AgeBias) / cost. Smaller values
	// favor shortest-job-first more aggressively (small requests overtake
	// a convoy of large ones immediately); larger values approach FIFO. A
	// request costing k× more than the smallest waits at most ~k·AgeBias
	// behind a continuous stream of small arrivals before its age wins.
	// 0 selects 1ms.
	AgeBias time.Duration
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// Submitted counts accepted requests; Completed counts finished ones
	// (Failed of those completed with an error).
	Submitted, Completed, Failed int
	// Batches counts executed batches; Coalesced counts requests that
	// joined an existing same-shape batch instead of opening their own.
	Batches, Coalesced int
	// Fused counts batches that executed on a shared KRP plan (the
	// Khatri-Rao intermediate computed once and consumed by the members
	// whose factor set matches it); FusedSavedFlops prices the Hadamard
	// flops those batches avoided — (plan rows served − one fill) × rank,
	// from the plan's own hit counters, so partially-matching batches
	// are priced by what the plan actually served. FusedFallbacks counts
	// fusable batches whose plan build failed and fell back to the
	// unfused member loop (a persistent rise means a shape class the
	// plan cannot serve — observable degradation, not an error).
	Fused           int
	FusedSavedFlops float64
	FusedFallbacks  int
	// PlanCacheHits counts batches served by a KRP plan retained from an
	// earlier batch (same shape key, value-matching factor set): the plan
	// crossed a batch boundary, so the batch skipped its fill entirely.
	PlanCacheHits int
	// Active and Queued describe the instant of the snapshot; PeakActive
	// and PeakQueued are the high-water marks of concurrently executing
	// batches and of the admission queue depth.
	Active, Queued, PeakActive, PeakQueued int
	// Reordered counts admissions where the aging policy let a request
	// overtake an older queued one (non-FIFO admissions).
	Reordered int
	// OldestQueuedMs is the age of the oldest request still waiting for
	// admission at the snapshot (0 when the queue is empty).
	OldestQueuedMs float64
	// MaxQueueWaitMs is the longest admission wait any batch has
	// experienced so far — the tail-latency fingerprint of the policy.
	MaxQueueWaitMs float64
	// Requests details the currently active and queued batches: granted
	// worker budget (0 while queued), model cost, and queue age.
	Requests []RequestStat
}

// RequestStat describes one active or queued batch in a Stats snapshot.
type RequestStat struct {
	// Kind is "mttkrp", "cp" or "func"; Key is the batching shape key
	// ("" for uncoalesced kinds); Items is the number of coalesced
	// requests riding the batch.
	Kind  string
	Key   string
	Items int
	// Cost is the per-request admission cost (model estimate or hint).
	Cost float64
	// Budget is the granted worker budget; 0 means still queued.
	Budget int
	// QueuedMs is the time the batch has spent (or spent, if active)
	// waiting for admission.
	QueuedMs float64
}

// Server is the serving runtime: an admission-controlled scheduler plus a
// same-shape batcher over one exclusively-owned worker pool. Create with
// New, submit with SubmitMTTKRP/SubmitCP, and Close when done.
//
// Admission is cost-aware: each request's worker budget is the pool width
// weighted by its share of the active requests' total cost (floored at
// MinWorkers, capped at MaxShare of the width), and the admission queue is
// ordered by an aging score rather than FIFO, so small requests are not
// convoyed behind large ones and large ones cannot starve. Budgets are
// retargeted on every admit and finish, and running requests apply the
// change at their next kernel phase boundary (between ALS sweeps, between
// MTTKRP mode computations) via parallel.Lease.Reconcile.
type Server struct {
	pool       *parallel.Pool
	width      int // pool team width the admission policy divides
	minWorkers int
	maxActive  int
	maxBatch   int
	batching   bool
	fusion     bool
	shareCap   int           // precomputed MaxShare · width, clamped to [minWorkers, width]
	ageBias    time.Duration // aging head start (resolved, > 0)

	mu       sync.Mutex
	open     map[string]*batch // same-shape batches still accepting joiners
	queue    []*batch          // admission queue (aging-scored)
	active   map[*batch]*grant
	planFP   map[string]uint64 // shape key → factor fingerprint of its last batch (plan LRU)
	planAge  []string          // planFP keys in recency order, oldest first
	rate     float64           // EMA of served cost per second per request (ProjectedWait)
	stats    Stats
	draining bool
	closed   bool
	drained  chan struct{}  // closed once draining and no queued/active work remains
	wg       sync.WaitGroup // running batch executors
}

// batch is one unit of admission: one or more requests that execute
// back-to-back on a single lease. Same-shape MTTKRP requests share a batch
// (and through its shape key, a workspace set); CP requests and unbatched
// servers get singleton batches.
type batch struct {
	key      string // shape key; "" never coalesces
	kind     string // "mttkrp", "cp" or "func"
	items    []*item
	cost     float64   // per-item admission cost (max over joined items)
	weight   float64   // aging priority weight (max over joined items)
	enqueued time.Time // when the batch entered the admission queue
}

// totalCost is the batch's full service estimate: every coalesced item
// runs back-to-back on the lease.
func (b *batch) totalCost() float64 { return b.cost * float64(len(b.items)) }

// grant is one active batch's execution state: its lease and the budget
// the policy most recently assigned it.
type grant struct {
	lease   *parallel.Lease
	budget  int
	started time.Time
}

// item is one submitted request plus its completion ticket. fp is the
// value fingerprint of the MTTKRP request's non-target factor set (0 =
// unfusable method or unwalkable factors): the batch executor builds a
// shared KRP plan when at least two members fingerprint alike.
type item struct {
	mt *MTTKRPRequest
	cp *CPRequest
	fn func(parallel.Executor) // test/instrumentation hook requests
	tk *Ticket
	fp uint64
}

// New creates a serving runtime with its own worker pool.
func New(cfg Config) *Server {
	width := parallel.Effective(cfg.Workers)
	minW := cfg.MinWorkers
	if minW < 1 {
		minW = 1
	}
	if minW > width {
		minW = width
	}
	maxActive := cfg.MaxActive
	if maxActive <= 0 {
		maxActive = width / minW
	}
	if maxActive < 1 {
		maxActive = 1
	}
	share := cfg.MaxShare
	if share <= 0 || share > 1 {
		share = 1
	}
	shareCap := int(share*float64(width) + 0.5)
	if shareCap < minW {
		shareCap = minW
	}
	if shareCap > width {
		shareCap = width
	}
	ageBias := cfg.AgeBias
	if ageBias <= 0 {
		ageBias = time.Millisecond
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 32
	}
	return &Server{
		pool:       parallel.NewPool(width),
		width:      width,
		minWorkers: minW,
		maxActive:  maxActive,
		maxBatch:   maxBatch,
		batching:   !cfg.DisableBatching,
		fusion:     !cfg.DisableBatching && !cfg.DisableFusion,
		shareCap:   shareCap,
		ageBias:    ageBias,
		open:       make(map[string]*batch),
		active:     make(map[*batch]*grant),
		planFP:     make(map[string]uint64),
		drained:    make(chan struct{}),
	}
}

// Workers returns the server pool's team width.
func (s *Server) Workers() int { return s.width }

// Model returns the server's request cost model, so front ends (the HTTP
// transport) can price a request from its header before admitting it.
func (s *Server) Model() CostModel { return CostModel{} }

// Stats returns a snapshot of the scheduler counters, including the
// per-request grant table (active budgets and queue ages).
func (s *Server) Stats() Stats {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Active = len(s.active)
	st.Queued = len(s.queue)
	st.Requests = make([]RequestStat, 0, len(s.active)+len(s.queue))
	for b, g := range s.active {
		st.Requests = append(st.Requests, RequestStat{
			Kind: b.kind, Key: b.key, Items: len(b.items), Cost: b.cost,
			Budget:   g.budget,
			QueuedMs: msBetween(b.enqueued, g.started),
		})
	}
	for _, b := range s.queue {
		age := msBetween(b.enqueued, now)
		st.Requests = append(st.Requests, RequestStat{
			Kind: b.kind, Key: b.key, Items: len(b.items), Cost: b.cost,
			QueuedMs: age,
		})
		if age > st.OldestQueuedMs {
			st.OldestQueuedMs = age
		}
	}
	return st
}

func msBetween(from, to time.Time) float64 {
	return float64(to.Sub(from).Microseconds()) / 1e3
}

// SubmitMTTKRP admits an MTTKRP request and returns its ticket
// immediately; the computation runs when the scheduler grants a lease.
// Same-shape requests submitted while a batch for that shape is still
// waiting for admission coalesce onto it.
func (s *Server) SubmitMTTKRP(req MTTKRPRequest) *Ticket {
	req.X = tensor.Unwrap(req.X) // a mapped tensor runs, and tiles, as its Dense
	if err := validateMTTKRP(req); err != nil {
		return failedTicket(err)
	}
	it := &item{mt: &req, tk: newTicket()}
	cost := costOf(req.CostHint, s.Model().MTTKRPFor(req.X, req.Factors[0].C))
	if _, dense := req.X.(*tensor.Dense); dense && s.fusion && core.PlanFusable(req.Method) {
		// Fingerprint the factors the mode-n KRP is built from, by
		// value. Batches coalesce by shape alone (amortizing lease and
		// workspace across any same-shape traffic, factors regardless);
		// the fingerprint decides at execution which members can share
		// one KRP plan, so only genuinely fusable requests coalesce
		// into a fused plan while the rest of the batch runs unfused.
		// Sparse requests never fingerprint — the sparse kernel has no
		// KRP intermediate to share (fp stays 0, so fuseSeed skips them
		// and runFused's dense assertion below always holds).
		if fp, ok := fuseFingerprint(&req); ok {
			it.fp = fp
		}
	}
	s.enqueue(shapeKey(req), "mttkrp", it, cost, weightOf(req.Weight))
	return it.tk
}

// SubmitCP admits a CP-ALS request. CP runs are never coalesced — each is
// its own unit of admission — but they share the worker pool and are
// budgeted by the same policy.
func (s *Server) SubmitCP(req CPRequest) *Ticket {
	if req.X == nil {
		return failedTicket(fmt.Errorf("serve: nil tensor"))
	}
	req.X = tensor.Unwrap(req.X)
	it := &item{cp: &req, tk: newTicket()}
	cost := costOf(req.CostHint, s.Model().CPFor(req.X, req.Config.Rank, req.Config.MaxIters, req.Config.Method))
	s.enqueue("", "cp", it, cost, weightOf(req.Weight))
	return it.tk
}

// submitFunc admits an arbitrary function under a shape key, cost and
// aging weight (0 selects defaults). Tests use it to occupy the scheduler
// deterministically.
func (s *Server) submitFunc(key string, cost, weight float64, fn func(parallel.Executor)) *Ticket {
	it := &item{fn: fn, tk: newTicket()}
	s.enqueue(key, "func", it, costOf(0, cost), weightOf(weight))
	return it.tk
}

// enqueue joins an open same-shape batch or opens a new one, then kicks
// the scheduler. A batch accepts joiners only while it is in s.open,
// which it leaves — under this same mutex — the moment scheduleLocked
// pops it for execution, so a join after the batch has been granted a
// lease is impossible: the executor goroutine is spawned while the lock
// is still held, after which no path can append to b.items.
func (s *Server) enqueue(key, kind string, it *item, cost, weight float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		it.tk.fail(ErrDraining)
		return
	}
	s.stats.Submitted++
	if key != "" && s.batching {
		if b, ok := s.open[key]; ok {
			b.items = append(b.items, it)
			// The batch ages as fast as its most urgent joiner and is
			// priced at its most expensive one: same-shape items share a
			// model cost by construction, but explicit CostHints may
			// differ, and under-pricing the batch would let a cheap first
			// item smuggle an expensive joiner past the aging queue. The
			// join also re-raises the batch's total service estimate —
			// totalCost scales with len(items) — which the aging score,
			// the budget split and ProjectedWait all price, so a batch
			// bloated by joiners cannot keep jumping the queue as if it
			// were a single request.
			if weight > b.weight {
				b.weight = weight
			}
			if cost > b.cost {
				b.cost = cost
			}
			s.stats.Coalesced++
			if len(b.items) >= s.maxBatch {
				// Full: close the join window so the batch's aging score
				// resumes growing (see Config.MaxBatch) and its lease-time
				// stays bounded; the next arrival opens a fresh batch.
				delete(s.open, key)
			}
			return
		}
	}
	b := &batch{key: key, kind: kind, items: []*item{it}, cost: cost, weight: weight, enqueued: time.Now()}
	if key != "" && s.batching && s.maxBatch > 1 {
		// A fresh batch already holds one item, so it only opens a join
		// window when the cap leaves room for a second.
		s.open[key] = b
	}
	s.queue = append(s.queue, b)
	if len(s.queue) > s.stats.PeakQueued {
		s.stats.PeakQueued = len(s.queue)
	}
	s.scheduleLocked()
}

// ageScore is the aging priority of a queued batch: cost-weighted deficit
// that grows with wait time. Small requests score high immediately
// (shortest-job-first), and a large request's age eventually dominates
// fresh small arrivals. The denominator is the batch's full service
// estimate — per-item cost × items — so every join re-prices the batch: a
// batch that has coalesced k requests is k× the work of a lone one and
// must not outscore it as if it were still a single small request.
// Because a join grows the denominator, the starvation bound is paid per
// member: a queued batch waits at most ~members · costRatio · AgeBias —
// capped at MaxBatch · costRatio · AgeBias, since a full batch stops
// accepting joiners and its score resumes growing with age alone.
func (s *Server) ageScore(b *batch, now time.Time) float64 {
	age := now.Sub(b.enqueued) + s.ageBias
	return b.weight * age.Seconds() / b.totalCost()
}

// pickLocked removes and returns the next batch to admit: the one with the
// highest aging score (the oldest on ties). Callers hold s.mu and
// guarantee the queue is non-empty.
func (s *Server) pickLocked(now time.Time) *batch {
	best, bestScore := 0, s.ageScore(s.queue[0], now)
	for i := 1; i < len(s.queue); i++ {
		if score := s.ageScore(s.queue[i], now); score > bestScore {
			best, bestScore = i, score
		}
	}
	b := s.queue[best]
	if best > 0 {
		s.stats.Reordered++ // an older batch stays queued behind this one
	}
	copy(s.queue[best:], s.queue[best+1:])
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	return b
}

// scheduleLocked admits queued batches while capacity remains: each gets a
// lease, and every active lease is retargeted to the policy's budget (the
// change lands at each lease's next phase boundary). Callers hold s.mu.
func (s *Server) scheduleLocked() {
	for len(s.queue) > 0 && len(s.active) < s.maxActive {
		now := time.Now()
		b := s.pickLocked(now)
		if b.key != "" && s.open[b.key] == b {
			// The batch stops accepting joiners the moment it is granted
			// a lease; later same-shape arrivals open the next batch. The
			// identity guard matters after a MaxBatch cap-close: the key
			// may already name a NEWER open batch whose join window must
			// survive this admission.
			delete(s.open, b.key)
		}
		if wait := msBetween(b.enqueued, now); wait > s.stats.MaxQueueWaitMs {
			s.stats.MaxQueueWaitMs = wait
		}
		// Open the lease at the floor; rebalanceLocked immediately widens
		// it to the policy budget (the lease is still idle, so the resize
		// applies before the first dispatch).
		g := &grant{lease: s.pool.Lease(s.minWorkers), started: now}
		s.active[b] = g
		s.stats.Batches++
		if len(s.active) > s.stats.PeakActive {
			s.stats.PeakActive = len(s.active)
		}
		s.rebalanceLocked()
		s.wg.Add(1)
		go s.run(b, g)
	}
}

// rebalanceLocked retargets every active lease to the admission policy's
// budget: each request's cost share of the width, floored at MinWorkers
// and capped at MaxShare. Width changes apply at each lease's next
// phase/region boundary; workers freed by a shrinking lease are picked up
// by growing ones on their next reconcile. Callers hold s.mu.
func (s *Server) rebalanceLocked() {
	total := 0.0
	for b := range s.active {
		total += b.totalCost()
	}
	for b, g := range s.active {
		// Budgets weight by the batch's full service estimate: a batch
		// running k coalesced members back-to-back is k× the work of a
		// singleton and earns the proportional share.
		w := int(float64(s.width)*b.totalCost()/total + 0.5)
		if w < s.minWorkers {
			w = s.minWorkers
		}
		if w > s.shareCap {
			w = s.shareCap
		}
		g.budget = w
		g.lease.Resize(w)
	}
}

// ProjectedWait estimates how long a request of the given cost would wait
// for admission if submitted now: the backlog it cannot overtake (queued
// batches of no greater cost, which outscore it under aging, plus an
// assumed-half-done remainder of the active batches when every slot is
// busy) divided by the scheduler's recent service rate. The estimate is
// deliberately coarse — its consumer is the transport's 429-versus-queue
// decision, which only needs the right order of magnitude. With no
// completed work yet (rate unknown) it reports 0: admit optimistically.
func (s *Server) ProjectedWait(cost float64) time.Duration {
	if cost <= 0 {
		cost = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rate <= 0 {
		return 0
	}
	ahead := 0.0
	for _, b := range s.queue {
		// Aging scores by total service estimate, so a batch can only be
		// overtaken by the new request when its full backlog — per-item
		// cost × coalesced items — exceeds the request's cost.
		if b.totalCost() <= cost {
			ahead += b.totalCost()
		}
	}
	if len(s.active) >= s.maxActive {
		for b := range s.active {
			ahead += 0.5 * b.totalCost()
		}
	}
	if ahead == 0 {
		return 0
	}
	slots := len(s.active)
	if slots < 1 {
		slots = 1
	}
	if slots > s.maxActive {
		slots = s.maxActive
	}
	return time.Duration(ahead / (s.rate * float64(slots)) * float64(time.Second))
}

// run executes one batch on its lease, then returns the lease and admits
// more work. A multi-member MTTKRP batch in which at least two members
// fingerprint alike executes fused: the shared KRP plan is built once
// under the lease before the member loop, matching members consume it
// read-only, and the rest compute their own KRP exactly as unfused.
func (s *Server) run(b *batch, g *grant) {
	defer s.wg.Done()
	// This goroutine is worker 0 of every region the batch dispatches: a
	// fault on a mapped tensor's pages (a file truncated under the kernel)
	// must panic into the ticket like any kernel panic, not kill the daemon.
	debug.SetPanicOnFault(true)
	lease := g.lease
	if b.key != "" {
		lease.SetWorkspaceKey("serve:" + b.key)
	}
	var fusedSaved float64
	fused, fellBack, cacheHit := false, false, false
	seed := fuseSeed(b)
	if seed == nil {
		// No two members fingerprint alike, but the plan LRU may remember
		// this shape from a previous batch: a member matching the retained
		// fingerprint seeds the fused path, so consecutive same-shape
		// batches fuse across batch boundaries.
		seed = s.cachedSeed(b)
	}
	if seed != nil {
		fusedSaved, cacheHit, fused = s.runFused(b, lease, seed)
		fellBack = !fused
	}
	if !fused {
		for _, it := range b.items {
			it.execute(lease, nil)
		}
	}
	dur := time.Since(g.started)
	lease.Close()
	s.mu.Lock()
	delete(s.active, b)
	s.observeRateLocked(b.totalCost(), dur)
	if fused {
		s.stats.Fused++
		s.stats.FusedSavedFlops += fusedSaved
		if cacheHit {
			s.stats.PlanCacheHits++
		}
	}
	if fellBack {
		s.stats.FusedFallbacks++
	}
	if b.kind == "mttkrp" && b.key != "" && s.fusion {
		if fp := batchFP(b, seed); fp != 0 {
			s.recordPlanLocked(b.key, fp)
		}
	}
	for _, it := range b.items {
		s.stats.Completed++
		if it.tk.err != nil {
			s.stats.Failed++
		}
	}
	s.rebalanceLocked()
	s.scheduleLocked()
	s.maybeDrainedLocked()
	s.mu.Unlock()
}

// fuseSeed picks the member whose factor set seeds the batch's shared KRP
// plan: the first member whose fingerprint at least one other member
// shares. nil means no plan is worth building (singleton batch, unfusable
// methods, or all-distinct factor sets — each member then computes its
// own KRP, the pre-fusion behavior).
func fuseSeed(b *batch) *item {
	if b.kind != "mttkrp" || len(b.items) < 2 {
		return nil
	}
	for i, it := range b.items {
		if it.fp == 0 {
			continue
		}
		for _, other := range b.items[i+1:] {
			if other.fp == it.fp {
				return it
			}
		}
	}
	return nil
}

// planLRUCap bounds the plan-fingerprint LRU: how many shape keys the
// scheduler remembers recent factor fingerprints for. It matches the
// pool's keyed-workspace cap, since a fingerprint is only useful while
// the workspace (and the detached plan inside it) for its shape survives.
const planLRUCap = 32

// batchFP picks the fingerprint run() records for a batch in the plan
// LRU: the seed's when the batch fused, else the first fingerprintable
// member's — the candidate the next same-shape batch would fuse with.
func batchFP(b *batch, seed *item) uint64 {
	if seed != nil {
		return seed.fp
	}
	for _, it := range b.items {
		if it.fp != 0 {
			return it.fp
		}
	}
	return 0
}

// cachedSeed returns a member whose fingerprint matches the plan LRU's
// entry for the batch's shape key, if any — the trigger for cross-batch
// fusion. nil when the shape is not remembered or no member matches.
func (s *Server) cachedSeed(b *batch) *item {
	if b.kind != "mttkrp" || b.key == "" || !s.fusion {
		return nil
	}
	s.mu.Lock()
	fp, ok := s.planFP[b.key]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	for _, it := range b.items {
		if it.fp == fp {
			return it
		}
	}
	return nil
}

// recordPlanLocked remembers key's most recent factor fingerprint,
// evicting the least-recently-recorded shape at capacity. Callers hold
// s.mu. Eviction needs no cleanup: the detached plan lives in the shape's
// keyed workspace and is simply refilled if the shape returns.
func (s *Server) recordPlanLocked(key string, fp uint64) {
	if _, ok := s.planFP[key]; ok {
		s.planFP[key] = fp
		for i, k := range s.planAge {
			if k == key {
				s.planAge = append(append(s.planAge[:i], s.planAge[i+1:]...), key)
				break
			}
		}
		return
	}
	if len(s.planAge) >= planLRUCap {
		delete(s.planFP, s.planAge[0])
		s.planAge = s.planAge[1:]
	}
	s.planFP[key] = fp
	s.planAge = append(s.planAge, key)
}

// newFusedPlanFrame builds the workspace-cached shared-KRP plan, so a
// steady stream of same-shape fused batches refills one plan object with
// arena-backed storage and allocates nothing.
func newFusedPlanFrame() any { return new(krp.Plan) }

// runFused executes a batch on a shared KRP plan seeded from one member's
// factor set: fill once under the batch's lease (or skip the fill when
// the plan retained by the shape-keyed workspace from a previous batch
// already covers the seed's factors — the cross-batch cache hit), then
// run every member against it — matching members hit, the rest miss and
// compute locally. The saving is priced from the plan's own counters
// (rows served minus the one formation the fill paid; a cache hit pays
// no fill), so partially-matching batches are priced by what the plan
// actually served. The plan workspace is held for the whole batch
// (member kernels acquire their own from the same shape-keyed list), and
// the plan is detached — not reset — before release: its original caller
// views are cleared so no request factor memory is retained, while the
// filled KRPs and value snapshots (plan-arena-owned) survive to serve
// the next same-shape batch. Any panic while building the plan —
// malformed factors surface in krp/core validation — falls back to the
// unfused member loop (counted as FusedFallbacks), where the same panic
// is recovered into the offending tickets; no member has executed yet
// when Fill can panic.
func (s *Server) runFused(b *batch, lease *parallel.Lease, seed *item) (saved float64, cacheHit, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			saved, cacheHit, ok = 0, false, false
		}
	}()
	req := seed.mt
	// Only dense requests carry a fingerprint (fusion is dense-only), so
	// the seed's tensor is necessarily dense.
	xd := req.X.(*tensor.Dense)
	ws := lease.Acquire()
	defer ws.Release()
	plan := ws.Frame("serve.fusedplan", newFusedPlanFrame).(*krp.Plan)
	defer plan.Detach()
	served0 := plan.ServedRows()
	fillPaid := int64(0)
	if core.PlanCovers(plan, ws, xd, req.Factors, req.Mode) {
		cacheHit = true
	} else {
		core.FillPlan(plan, lease, ws, 0, xd, req.Factors, req.Mode)
		fillPaid = int64(plan.FilledRows())
	}
	for _, it := range b.items {
		it.execute(lease, plan)
	}
	savedRows := plan.ServedRows() - served0 - fillPaid
	if savedRows > 0 {
		saved = float64(savedRows) * float64(req.Factors[0].C)
	}
	return saved, cacheHit, true
}

// observeRateLocked folds one completed batch into the served-cost-rate
// EMA that ProjectedWait divides by. Callers hold s.mu.
func (s *Server) observeRateLocked(cost float64, dur time.Duration) {
	sec := dur.Seconds()
	if sec <= 0 || cost <= 0 {
		return
	}
	r := cost / sec
	if s.rate == 0 {
		s.rate = r
		return
	}
	s.rate = 0.25*r + 0.75*s.rate
}

// maybeDrainedLocked signals Drain waiters once admission has stopped and
// the last admitted batch has finished. Callers hold s.mu.
func (s *Server) maybeDrainedLocked() {
	if !s.draining || len(s.queue) != 0 || len(s.active) != 0 {
		return
	}
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

// Drain stops admission and waits for every already-accepted request —
// running or still queued — to complete. Submissions during and after the
// drain fail with ErrDraining. Drain is idempotent and safe to call
// concurrently; Close after Drain releases the pool without failing
// anything.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.maybeDrainedLocked()
	s.mu.Unlock()
	<-s.drained
	s.wg.Wait()
}

// execute runs one request on the granted executor, recovering kernel
// panics (shape mismatches and the like) into the ticket. Kernel phase
// boundaries reconcile the executor, so a budget change issued by the
// scheduler mid-request lands at the next safe point. A non-nil plan is
// the batch's shared KRP intermediate: MTTKRP members consume it
// read-only (falling back per-side on a mismatch), other kinds ignore it.
func (it *item) execute(ex parallel.Executor, plan *krp.Plan) {
	tk := it.tk
	defer func() {
		if r := recover(); r != nil {
			tk.err = fmt.Errorf("serve: request failed: %v", r)
		}
		close(tk.done)
	}()
	switch {
	case it.mt != nil:
		// Threads = 0 resolves to the lease's granted budget; PhaseNotify
		// applies pending budget changes at each computation boundary —
		// also between fused batch members, so a mid-batch Reconcile
		// lands exactly as it would on the unfused path. RunWithPlan
		// dispatches on the tensor's layout; a sparse member ignores the
		// plan (it has no KRP intermediate).
		cr := it.mt.Core()
		cr.Opts = core.Options{
			Pool:        ex,
			PhaseNotify: func() { parallel.Reconcile(ex) },
		}
		if xd, isDense := cr.X.(*tensor.Dense); isDense && xd.Mapped() {
			// A file-backed tensor streams through bounded row tiles so
			// its resident working set stays within the tile budget
			// regardless of the file's extent (bit-identical to the
			// untiled kernel; see core's tiled drivers).
			cr.Opts.TileRows = core.AutoTileRows(xd.Dims(), cr.Mode, 0)
		}
		tk.m = core.RunWithPlan(cr, plan)
	case it.cp != nil:
		cfg := it.cp.Config
		cfg.Pool = ex
		cfg.Threads = 0
		// cpd reconciles the lease between sweeps (and between modes)
		// itself; no extra wiring needed here. ALS dispatches on the
		// tensor's layout.
		tk.cp, tk.err = cpd.ALS(it.cp.X, cfg)
	default:
		it.fn(ex)
	}
}

// Close fails all queued requests, waits for running batches to finish,
// and releases the worker pool. Submissions after Close fail with
// ErrDraining. Close is idempotent. For a graceful stop that completes
// queued work instead of failing it, call Drain first.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.draining = true
	pending := s.queue
	s.queue = nil
	clear(s.open)
	s.maybeDrainedLocked()
	for _, b := range pending {
		// Queued requests complete (with ErrClosed) like any others, so
		// Submitted == Completed still holds after a drain-and-close.
		s.stats.Completed += len(b.items)
		s.stats.Failed += len(b.items)
	}
	s.mu.Unlock()
	for _, b := range pending {
		for _, it := range b.items {
			it.tk.fail(ErrClosed)
		}
	}
	s.wg.Wait()
	s.pool.Close()
}

// shapeKey is the batching signature of an MTTKRP request: tensor shape,
// rank, mode, method and layout. Two requests with equal keys run
// correctly on one warmed workspace set; sparse requests additionally key
// on nnz, since the sparse kernel's scratch sizing (entry-range bounds,
// per-worker accumulators) tracks the stored-entry count, and a dense and
// a sparse request of the same shape must never share a workspace.
func shapeKey(r MTTKRPRequest) string {
	key := make([]byte, 0, 48)
	for i := 0; i < r.X.Order(); i++ {
		key = fmt.Appendf(key, "%dx", r.X.Dim(i))
	}
	key = fmt.Appendf(key, "|c%d|n%d|m%d", r.Factors[0].C, r.Mode, int(r.Method))
	if r.X.Layout() == tensor.LayoutCOO {
		key = fmt.Appendf(key, "|coo%d", r.X.NNZ())
	}
	return string(key)
}

// fuseFingerprint hashes the factor set an MTTKRP's shared KRP is built
// from — every factor except the target mode's, which is not a KRP
// operand — by value (FNV-1a over dimensions and element bits), so
// requests carrying identical factors fuse even when each decoded its
// payload into a different buffer (the network path). A collision merely
// coalesces unfusable requests into one batch; the plan's own value
// comparison then misses and each member computes its KRP locally, so a
// collision costs a shared queue slot, never correctness. Requests whose
// factor views the fingerprint cannot walk (non-unit column stride,
// malformed geometry) report ok = false and stay on the plain shape key.
func fuseFingerprint(r *MTTKRPRequest) (fp uint64, ok bool) {
	defer func() {
		if recover() != nil {
			fp, ok = 0, false
		}
	}()
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for k, f := range r.Factors {
		if k == r.Mode {
			continue
		}
		if f.CS != 1 {
			return 0, false
		}
		h = (h ^ uint64(f.R)) * prime64
		h = (h ^ uint64(f.C)) * prime64
		for i := 0; i < f.R; i++ {
			for _, x := range f.ContiguousRow(i) {
				h = (h ^ math.Float64bits(x)) * prime64
			}
		}
	}
	return h, true
}

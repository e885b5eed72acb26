// Package parallel provides the shared-memory execution primitives used by
// the MTTKRP kernels: contiguous static partitioning of index ranges across
// a fixed number of workers, per-worker private buffers, and parallel
// reductions. It mirrors the OpenMP "parallel for" + private accumulator +
// reduction structure of the paper's Algorithm 3 using goroutines.
//
// Execution is built on persistent worker pools (see Pool): workers are
// spawned once and reused across parallel regions, and kernels lease
// per-worker scratch arenas from reusable Workspaces, so steady-state
// dispatch allocates nothing. Every region runs on an Executor its caller
// passes, a Pool or a Lease. A caller with none passes nil, and OrDefault
// resolves nil to a lazily-created process-wide pool; nothing else reaches
// that pool.
package parallel

import "runtime"

// DefaultThreads returns the default worker count, the number of CPUs the
// runtime will schedule on (GOMAXPROCS).
func DefaultThreads() int {
	return runtime.GOMAXPROCS(0)
}

// Effective resolves a requested worker count to the width a dispatch
// actually uses: t itself when positive, DefaultThreads() (GOMAXPROCS)
// when t <= 0. This is the single t = 0 resolution rule for the whole
// library — blas, core and krp all resolve through it (directly or via
// Clamp/EffectiveOn) instead of repeating the clamp.
//
// Note that resolution is independent of any pool's current team size:
// Pool.Workers() reports how many persistent workers exist right now,
// while Effective(0) reports the width a default dispatch will use (the
// pool grows on demand to satisfy it). Leases are the exception — their
// Effective caps the width at the granted budget; see Lease.
func Effective(t int) int {
	if t <= 0 {
		return DefaultThreads()
	}
	return t
}

// EffectiveOn resolves a requested worker count against an executor's own
// width rule; a nil executor resolves with Effective. Pools resolve like
// Effective (the team is not a cap); leases cap at their granted width.
func EffectiveOn(p Executor, t int) int {
	if p = nilToNone(p); p == nil {
		return Effective(t)
	}
	return p.Effective(t)
}

// nilToNone normalizes typed-nil executors to a plain nil interface. A
// caller holding an unset *Pool variable (the historical optional-pool
// idiom) produces a non-nil interface wrapping a nil pointer when
// assigning it to an Executor; treating that as "no executor" preserves
// the old *Pool == nil fallback semantics.
func nilToNone(p Executor) Executor {
	switch v := p.(type) {
	case *Pool:
		if v == nil {
			return nil
		}
	case *Lease:
		if v == nil {
			return nil
		}
	}
	return p
}

// OrDefault resolves an optional execution context: nil (including a
// typed-nil *Pool or *Lease) selects the process-wide default pool.
func OrDefault(p Executor) Executor {
	if p = nilToNone(p); p == nil {
		return defaultPool()
	}
	return p
}

// Reconciler is implemented by executors whose granted width can be
// retargeted mid-request by an external scheduler (today: *Lease).
// Reconcile applies any pending width change at a safe point and returns
// the resulting width.
type Reconciler interface {
	Reconcile() int
}

// Reconcile applies a pending budget change on executors that support it
// and returns the executor's current width either way. Kernels call it at
// phase boundaries (between ALS sweeps, between the modes of a sweep) so
// an admission policy's mid-request Resize takes effect at the next safe
// point; on a plain Pool it is just Workers().
func Reconcile(p Executor) int {
	p = OrDefault(p)
	if r, ok := p.(Reconciler); ok {
		return r.Reconcile()
	}
	return p.Workers()
}

// Clamp bounds t to [1, n] when n > 0; a non-positive t selects
// DefaultThreads (the Effective rule). It never returns more workers than
// items so that every worker owns a non-empty contiguous range.
func Clamp(t, n int) int {
	t = Effective(t)
	if n > 0 && t > n {
		t = n
	}
	if t < 1 {
		t = 1
	}
	return t
}

// Range describes a contiguous half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into t contiguous ranges whose sizes differ by at
// most one, matching the static block schedule used throughout the paper.
// It always returns exactly t ranges; trailing ranges may be empty when
// t > n.
func Split(n, t int) []Range {
	if t < 1 {
		t = 1
	}
	ranges := make([]Range, t)
	base := n / t
	rem := n % t
	lo := 0
	for i := range ranges {
		size := base
		if i < rem {
			size++
		}
		ranges[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return ranges
}

// Package core implements the paper's MTTKRP algorithms for dense tensors
// in natural layout: the novel 1-step algorithm (Algorithms 2 and 3), the
// 2-step algorithm of Phan et al. (Algorithm 4), and the classical
// explicit-reorder baseline of Bader and Kolda. All variants compute
//
//	M = X_(n) · (U_{N-1} ⊙ ⋯ ⊙ U_{n+1} ⊙ U_{n-1} ⊙ ⋯ ⊙ U₀)
//
// where X is an N-way dense tensor, U_k are I_k × C factor matrices, and
// ⊙ is the Khatri-Rao product. The 1-step and 2-step algorithms never
// reorder tensor entries; they multiply strided views of the tensor buffer
// directly (see package tensor for the layout structure).
package core

import (
	"fmt"

	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Method selects an MTTKRP algorithm.
type Method int

const (
	// MethodAuto (the zero value, hence the default everywhere) is the
	// paper's CP-ALS choice (Section 5.3.3), 1-step for external modes and
	// 2-step for internal modes, with one exception: on a tensor whose
	// balanced split s = SplitPoint(dims) leaves at least two modes on
	// each side (2 ≤ s ≤ N−2, so order 4 and up) every mode runs one half
	// of SweepAll's dimension tree at s instead, contracting the other half
	// against a KRP of about √|X| rows rather than forming a tensor-sized
	// one or 2-step's lopsided partial KRP. Both are one half step of a
	// dimension tree (2-step's is split at mode n), and every mode that
	// runs one has the same bits at every worker count.
	MethodAuto Method = iota
	// MethodOneStep is the paper's 1-step algorithm: form KRP rows and
	// multiply tensor blocks in place (Algorithm 3; Algorithm 2 is the
	// sequential full-KRP variant, available as OneStepSequential).
	MethodOneStep
	// MethodTwoStep is the partial-MTTKRP + multi-TTV algorithm of Phan et
	// al. (Algorithm 4), run as one half step of a dimension tree split at
	// mode n (see TwoStep). For external modes it degenerates to 1-step.
	MethodTwoStep
	// MethodReorder is the Bader–Kolda baseline: explicitly reorder the
	// tensor into a column-major X_(n), form the full KRP, one GEMM.
	MethodReorder
	// MethodNaive is the direct-definition reference (for validation).
	MethodNaive
)

// String returns the method name used in benchmark output.
func (m Method) String() string {
	switch m {
	case MethodOneStep:
		return "1-step"
	case MethodTwoStep:
		return "2-step"
	case MethodReorder:
		return "reorder"
	case MethodAuto:
		return "auto"
	case MethodNaive:
		return "naive"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures an MTTKRP computation.
type Options struct {
	// Threads is the worker count; 0 selects GOMAXPROCS.
	Threads int
	// Breakdown, when non-nil, receives per-phase wall times (Figure 6).
	Breakdown *Breakdown
	// BlasOnlyParallel restricts MethodReorder to parallelism inside the
	// GEMM call only, the way Matlab Tensor Toolbox on a multithreaded
	// BLAS behaves: the tensor permute and the KRP formation run on a
	// single thread. Used by the Figure 7 comparator.
	BlasOnlyParallel bool
	// Pool, when non-nil, selects the execution context that runs the
	// kernels: a *parallel.Pool (a persistent worker team with reusable
	// per-worker workspaces) or a *parallel.Lease (a scheduler-granted
	// slice of a shared team, the serving path); nil uses the process-wide
	// default pool. With a lease attached, Threads = 0 resolves to the
	// lease's granted budget, so admitted requests automatically honor
	// their admission policy. Every region of the request runs on it: the
	// MTTKRP kernels, BLAS calls, reductions and the reorder baseline's
	// Unfold.
	Pool parallel.Executor
	// PhaseNotify, when non-nil, is invoked at kernel phase boundaries —
	// the entry of each MTTKRP computation, and between the per-mode
	// derivations of SweepAll — with no dispatch in flight on the
	// executor. The serving scheduler hooks parallel.Lease.Reconcile here
	// so a mid-request worker-budget change (shrink or grow) applies at
	// the next safe point rather than only between requests;
	// instrumentation can use it to observe kernel progress. It runs on
	// the computing goroutine and must not dispatch on opts.Pool.
	PhaseNotify func()

	// TileRows has no effect: every tensor, heap or mapped, computes
	// untiled, its kernels reading the tensor where it lies through
	// strided views.
	//
	// Deprecated: ignored. It remains only while the benchmark ledger's
	// by-reference probe still sets it.
	TileRows int

	// plan, when non-nil, is a prebuilt shared Khatri-Rao intermediate the
	// kernels may consume instead of recomputing their partial KRPs (batch
	// fusion; set via ComputeIntoWithPlan, which documents the contract).
	plan *krp.Plan
}

// notifyPhase invokes the phase-boundary hook, if any.
func (o Options) notifyPhase() {
	if o.PhaseNotify != nil {
		o.PhaseNotify()
	}
}

// pool resolves the execution context for this computation; nil (and the
// historical typed-nil *Pool) selects the process-wide default pool.
func (o Options) pool() parallel.Executor {
	return parallel.OrDefault(o.Pool)
}

// DefaultTileBytes is the byte budget AutoTileRows assumes when the caller
// does not pick one.
//
// Deprecated: no kernel tiles any more; see Options.TileRows.
const DefaultTileBytes = 8 << 20

// AutoTileRows returns max(2, budget / (8·I_{≠n})) for a tensor with the
// given dims and mode n, with budgetBytes ≤ 0 selecting DefaultTileBytes,
// or 0 when the whole tensor fits the budget. It sizes nothing: the
// benchmark ledger reports the value as its tensor.tile_rows row.
//
// Deprecated: no kernel tiles any more; see Options.TileRows.
func AutoTileRows(dims []int, n int, budgetBytes int64) int {
	if budgetBytes <= 0 {
		budgetBytes = DefaultTileBytes
	}
	rowElems := int64(1)
	for k, d := range dims {
		if k != n {
			rowElems *= int64(d)
		}
	}
	if rowElems <= 0 {
		return 0
	}
	rows := budgetBytes / (8 * rowElems)
	if rows >= int64(dims[n]) {
		return 0
	}
	return int(max(rows, 2))
}

// Compute runs the selected MTTKRP method for mode n and returns the
// I_n × C result matrix (row-major).
func Compute(method Method, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	if method == MethodNaive {
		return Naive(x, u, n)
	}
	return ComputeInto(mat.NewDense(x.Dim(n), rank(u)), method, x, u, n, opts)
}

// ComputeInto runs the selected MTTKRP method for mode n, writing the
// I_n × C result into dst (contiguous row-major) and returning it. dst is
// the steady-state entry point: with a retained dst and a persistent pool,
// repeated same-shape calls reuse the pool's workspaces and allocate
// nothing.
func ComputeInto(dst mat.View, method Method, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	validateDst(dst, x.Dim(n), rank(u))
	// Phase notification happens in the leaf kernels (oneStepExternal,
	// oneStepInternal, halfStepInto, ReorderInto), so direct entry through
	// OneStepInto/TwoStepInto/ReorderInto reaches the same safe point as
	// entry through here — exactly once per computation either way.
	// mttkrp-lint's phasehook analyzer enforces this for every exported
	// *Into entry point.
	switch method {
	case MethodAuto, MethodTwoStep:
		if s := halfSplit(method, x.Order(), x.Dim, n); s > 0 {
			return halfStepInto(dst, x, u, n, s, opts)
		}
		return OneStepInto(dst, x, u, n, opts)
	case MethodOneStep:
		return OneStepInto(dst, x, u, n, opts)
	case MethodReorder:
		return ReorderInto(dst, x, u, n, opts)
	case MethodNaive:
		opts.notifyPhase() // the reference path has no leaf kernel to notify
		dst.CopyFrom(Naive(x, u, n))
		return dst
	}
	panic(fmt.Sprintf("core: unknown method %d", int(method)))
}

// validateDst checks that dst is a contiguous row-major in × c matrix (the
// kernels use its backing slice directly as worker 0's accumulator).
func validateDst(dst mat.View, in, c int) {
	if dst.R != in || dst.C != c {
		panic(fmt.Sprintf("core: dst is %dx%d, want %dx%d", dst.R, dst.C, in, c))
	}
	if !dst.IsRowMajor() {
		panic("core: dst must be contiguous row-major")
	}
}

// Methods lists the production algorithms (excluding the naive reference),
// in the order benchmarks report them.
func Methods() []Method {
	return []Method{MethodOneStep, MethodTwoStep, MethodReorder, MethodAuto}
}

func isExternal(x *tensor.Dense, n int) bool {
	return n == 0 || n == x.Order()-1
}

// validate checks the factor matrices against the tensor.
func validate(x *tensor.Dense, u []mat.View, n int) {
	nModes := x.Order()
	if nModes < 2 {
		panic("core: MTTKRP requires an order ≥ 2 tensor")
	}
	if len(u) != nModes {
		panic(fmt.Sprintf("core: %d factor matrices for an order-%d tensor", len(u), nModes))
	}
	if n < 0 || n >= nModes {
		panic(fmt.Sprintf("core: mode %d out of range [0,%d)", n, nModes))
	}
	c := u[0].C
	for k, m := range u {
		if m.R != x.Dim(k) {
			panic(fmt.Sprintf("core: factor %d has %d rows, want %d", k, m.R, x.Dim(k)))
		}
		if m.C != c {
			panic(fmt.Sprintf("core: factor %d has %d columns, want %d", k, m.C, c))
		}
		if m.CS != 1 {
			panic(fmt.Sprintf("core: factor %d must have unit column stride", k))
		}
	}
}

// rank returns the shared column count C of the factors.
func rank(u []mat.View) int { return u[0].C }

// operands returns the KRP operand list for mode n in the paper's order
// [U_{N-1}, …, U_{n+1}, U_{n-1}, …, U₀], so that U₀'s row index varies
// fastest, matching the column linearization of X_(n).
func operands(u []mat.View, n int) []mat.View {
	return appendOperands(make([]mat.View, 0, len(u)-1), u, n)
}

// appendOperands is operands into a caller-owned slice (kernel frames reuse
// one backing array across calls).
func appendOperands(dst []mat.View, u []mat.View, n int) []mat.View {
	for k := len(u) - 1; k >= 0; k-- {
		if k != n {
			dst = append(dst, u[k])
		}
	}
	return dst
}

// appendLeftOperands appends [U_{n-1}, …, U₀]: the left partial KRP K_L,
// whose rows are indexed by the linearization of modes 0..n-1.
func appendLeftOperands(dst []mat.View, u []mat.View, n int) []mat.View {
	for k := n - 1; k >= 0; k-- {
		dst = append(dst, u[k])
	}
	return dst
}

// appendRightOperands appends [U_{N-1}, …, U_{n+1}]: the right partial KRP
// K_R, whose rows are indexed by the linearization of modes n+1..N-1.
func appendRightOperands(dst []mat.View, u []mat.View, n int) []mat.View {
	for k := len(u) - 1; k > n; k-- {
		dst = append(dst, u[k])
	}
	return dst
}

// clearViews zeroes a frame-cached view slice so released workspaces do not
// retain caller data, returning it emptied with capacity intact.
func clearViews(s []mat.View) []mat.View {
	for i := range s {
		s[i] = mat.View{}
	}
	return s[:0]
}

// viewListFrame is a workspace-cached operand-list scratch slice for
// coordinator-level kernels that need one KRP operand list per call.
type viewListFrame struct{ ops []mat.View }

func newViewListFrame() any { return &viewListFrame{} }

func viewList(ws *parallel.Workspace) *viewListFrame {
	return ws.Frame("core.viewlist", newViewListFrame).(*viewListFrame)
}

// arenaMat leases an r × c contiguous row-major matrix from ar under tag.
// Contents are unspecified (whatever the previous same-tag use left).
func arenaMat(ar *parallel.Arena, tag string, r, c int) mat.View {
	return mat.FromRowMajor(ar.Float64(tag, r*c), r, c)
}

// arenaMatZero is arenaMat with the contents cleared.
func arenaMatZero(ar *parallel.Arena, tag string, r, c int) mat.View {
	m := arenaMat(ar, tag, r, c)
	clear(m.Data)
	return m
}

// arenaColMajor leases an r × c contiguous column-major matrix from ar.
func arenaColMajor(ar *parallel.Arena, tag string, r, c int) mat.View {
	return mat.FromColMajor(ar.Float64(tag, r*c), r, c)
}

// Naive computes the MTTKRP directly from the definition,
// M(i, c) = Σ over all entries X(i₀,…,i_{N-1}) ∏_{k≠n} U_k(i_k, c).
// It is the validation reference for every other method.
func Naive(x *tensor.Dense, u []mat.View, n int) mat.View {
	validate(x, u, n)
	c := rank(u)
	m := mat.NewDense(x.Dim(n), c)
	idx := make([]int, x.Order())
	data := x.Data()
	for l, v := range data {
		if v == 0 {
			continue
		}
		x.MultiIndex(l, idx)
		for cc := 0; cc < c; cc++ {
			p := v
			for k := range u {
				if k != n {
					p *= u[k].At(idx[k], cc)
				}
			}
			m.Add(idx[n], cc, p)
		}
	}
	return m
}

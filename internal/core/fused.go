package core

import (
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// This file is the batch-level kernel fusion entry: a coalesced batch of
// same-shape MTTKRP requests whose factor sets are identical except the
// target-mode operand recomputes an identical Khatri-Rao intermediate per
// member. A krp.Plan filled once per batch (FillPlan) carries the partial
// KRPs that the mode's kernel (halfSplit) looks up; ComputeIntoWithPlan
// threads it to the kernels, which consume it read-only:
//
//   - 1-step external modes GEMM directly against the plan's one-sided
//     full KRP instead of streaming per-worker row blocks;
//   - 1-step internal modes take K_L whole and read K_R rows from the plan
//     instead of recomputing both;
//   - half-step modes (2-step's internal modes, either ordering, and
//     MethodAuto's split-path external modes) take the one partial KRP of
//     the half that does not hold mode n and skip their entire PhaseLRKRP;
//   - the reorder baseline and the naive reference ignore plans
//     (PlanFusable reports them unfusable).
//
// Consumption is fail-safe: every kernel looks its operand list up in the
// plan and computes locally on a miss, so a stale or mismatched plan can
// cost time but never correctness. Plan rows are bitwise identical to the
// rows the unfused kernels form (same Hadamard association order), and the
// fused paths keep the unfused GEMM partitioning, so fused and unfused
// execution produce bit-identical results at equal worker counts.
func ComputeIntoWithPlan(dst mat.View, method Method, x *tensor.Dense, u []mat.View, n int, opts Options, p *krp.Plan) mat.View {
	opts.plan = p
	return ComputeInto(dst, method, x, u, n, opts)
}

// planOpsFrame is the workspace-cached operand-list scratch of FillPlan
// (two lists at once, so it cannot share the single-list viewListFrame).
type planOpsFrame struct{ left, right []mat.View }

func newPlanOpsFrame() any { return &planOpsFrame{} }

// planOps returns ws's operand-list frame holding the lists method's
// kernel looks up for mode n: for a half-step mode (halfSplit), the one
// partial KRP of the half that does not hold n; for a 1-step mode, the
// left and right partial KRPs of mode n (one of them empty for an external
// mode, whose other side is then the full KRP).
func planOps(ws *parallel.Workspace, method Method, x *tensor.Dense, u []mat.View, n int) *planOpsFrame {
	validate(x, u, n)
	f := ws.Frame("core.planops", newPlanOpsFrame).(*planOpsFrame)
	switch s := halfSplit(method, x.Order(), x.Dim, n); {
	case s == 0:
		f.left = appendLeftOperands(f.left, u, n)
		f.right = appendRightOperands(f.right, u, n)
	case n < s:
		f.right = appendRightOperands(f.right, u, s-1)
	default:
		f.left = appendLeftOperands(f.left, u, s)
	}
	return f
}

func (f *planOpsFrame) release() {
	f.left = clearViews(f.left)
	f.right = clearViews(f.right)
}

// FillPlan fills p with exactly the partial KRPs that method's kernel
// looks up for mode n of the factor set u (see planOps), dispatching on ex
// (t <= 0 selects the executor's width) with plan storage leased from ws.
// The plan can then serve any ComputeIntoWithPlan of that method whose
// mode-n operand set matches u's. With a warmed ws and a retained plan,
// refilling allocates nothing.
func FillPlan(p *krp.Plan, ex parallel.Executor, ws *parallel.Workspace, t int, method Method, x *tensor.Dense, u []mat.View, n int) {
	f := planOps(ws, method, x, u, n)
	p.Fill(ex, ws, t, f.left, f.right)
	f.release()
}

// PlanCovers reports whether p, as currently filled, would serve mode n of
// the factor set u under method — i.e. a FillPlan with these arguments is
// redundant. It is how the batch executor detects that the plan a
// shape-keyed workspace retained from the previous batch (detached:
// snapshots only) already covers the next batch's factor set, fusing
// across batch boundaries.
func PlanCovers(p *krp.Plan, ws *parallel.Workspace, method Method, x *tensor.Dense, u []mat.View, n int) bool {
	f := planOps(ws, method, x, u, n)
	ok := p.Covers(f.left, f.right)
	f.release()
	return ok
}

// PlanFusable reports whether the method can consume a shared KRP plan.
// The reorder baseline materializes its KRP in a layout the plan does not
// provide, and the naive reference never forms one.
func PlanFusable(method Method) bool {
	switch method {
	case MethodOneStep, MethodTwoStep, MethodAuto:
		return true
	}
	return false
}

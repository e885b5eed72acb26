package core

import (
	"fmt"

	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// Request is the canonical description of one MTTKRP computation — the
// single shape the in-process API (repro.MTTKRP*), the serving scheduler
// (serve.MTTKRPRequest) and the wire codec all construct before executing.
// It replaced three parallel positional argument lists that had each grown
// its own per-feature knobs; DESIGN.md §13 documents the field mapping
// from the older entry points.
type Request struct {
	// X is the input tensor: *tensor.Dense (a *tensor.Map counts as its
	// embedded Dense) or *tensor.Sparse. Run dispatches on its layout.
	X tensor.Interface
	// Factors are the I_k × C row-major factor matrices, one per mode.
	Factors []mat.View
	// Mode is the MTTKRP mode n.
	Mode int
	// Method selects the dense algorithm (zero value = the paper's
	// hybrid). Sparse tensors have one kernel and ignore it, except
	// MethodNaive, which runs against the densified reference.
	Method Method
	// Dst, when non-zero, receives the I_n × C result (contiguous
	// row-major, caller-retained for steady-state reuse); a zero Dst
	// allocates one.
	Dst mat.View
	// Opts carries the execution knobs (threads, pool, phase hook,
	// breakdown).
	Opts Options
}

// Run executes the request, dispatching on the tensor's layout, and
// returns the result matrix (Dst when one was supplied).
func Run(r Request) mat.View {
	return RunWithPlan(r, nil)
}

// RunWithPlan is Run with an optional prebuilt shared Khatri-Rao plan
// (batch fusion). Only the dense kernels consume plans; a sparse request
// ignores the plan and computes directly — the sparse kernel has no KRP
// intermediate to share.
func RunWithPlan(r Request, plan *krp.Plan) mat.View {
	dst := r.Dst
	switch x := tensor.Unwrap(r.X).(type) {
	case *tensor.Dense:
		if dst.Data == nil {
			dst = mat.NewDense(x.Dim(r.Mode), rank(r.Factors))
		}
		if plan != nil {
			return ComputeIntoWithPlan(dst, r.Method, x, r.Factors, r.Mode, r.Opts, plan)
		}
		return ComputeInto(dst, r.Method, x, r.Factors, r.Mode, r.Opts)
	case *tensor.Sparse:
		if dst.Data == nil {
			dst = mat.NewDense(x.Dim(r.Mode), rank(r.Factors))
		}
		if r.Method == MethodNaive {
			r.Opts.notifyPhase() // the reference path has no leaf kernel to notify
			dst.CopyFrom(Naive(x.Densify(), r.Factors, r.Mode))
			return dst
		}
		return SparseComputeInto(dst, x, r.Factors, r.Mode, r.Opts)
	}
	panic(fmt.Sprintf("core: unsupported tensor layout %v", r.X.Layout()))
}

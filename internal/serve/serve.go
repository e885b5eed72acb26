// Package serve is the concurrent serving runtime on top of the
// pool/workspace layers: a scheduler that admits MTTKRP and CP-ALS
// requests, grants each an execution lease sized by a cost-aware admission
// policy (worker budgets weighted by each request's cost share under a
// CostModel, floored at a minimum, capped at a maximum share, and
// rebalanced as requests arrive and finish — running requests apply the
// change at kernel phase boundaries via parallel.Lease.Reconcile), orders
// the admission queue by an aging score so small requests are not convoyed
// behind large ones, and coalesces same-shape MTTKRP requests into batches
// that run back-to-back on one lease and one shape-keyed workspace set —
// amortizing admission, dispatch warmup and scratch-buffer sizing across
// requests the way a model server amortizes weights across queries.
//
// One Server owns one parallel.Pool exclusively. Requests are submitted
// asynchronously and complete through Tickets.
package serve

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// ErrClosed reports pending work failed by a hard Close: requests that
// were still queued for admission when the server shut down.
var ErrClosed = errors.New("serve: server closed")

// ErrDraining reports a submission refused because the server has stopped
// admitting work — Drain or Close has begun. Transports map it to a
// retryable rejection (HTTP 503) so clients fail over rather than treat
// the drain as a request error.
var ErrDraining = errors.New("serve: server draining, not accepting new requests")

// MTTKRPRequest describes one MTTKRP computation to admit. It mirrors
// core.Request (the canonical request shape — see Core) plus the two
// admission knobs only the scheduler consumes.
type MTTKRPRequest struct {
	// X is the input tensor (shared, read-only during the computation):
	// *tensor.Dense or *tensor.Sparse. The scheduler prices and batches by
	// its layout — sparse requests cost by nnz · rank, not Π dims · rank.
	X tensor.Interface
	// Factors are the I_k × C row-major factor matrices, one per mode.
	Factors []mat.View
	// Mode is the MTTKRP mode n.
	Mode int
	// Method selects the algorithm (zero value = MethodAuto).
	Method Method
	// Dst, when non-zero, receives the I_n × C result (contiguous
	// row-major, caller-retained for steady-state reuse); a zero Dst lets
	// the server allocate one.
	Dst mat.View
	// CostHint, when positive, overrides the scheduler's cost-model
	// estimate for this request — the transport maps the X-Cost-Hint
	// header here. The cost weights the request's worker budget and its
	// queue aging.
	CostHint float64
	// Weight scales the request's aging priority (> 1 ages faster and is
	// admitted sooner under load, < 1 slower); 0 selects 1. The transport
	// maps the X-Priority header here.
	Weight float64
}

// Method aliases the core algorithm selector so daemon code can depend on
// serve alone.
type Method = core.Method

// Core returns the request as the canonical core.Request shape the
// executor runs (admission knobs excluded; the scheduler owns Opts).
func (r *MTTKRPRequest) Core() core.Request {
	return core.Request{X: r.X, Factors: r.Factors, Mode: r.Mode, Method: r.Method, Dst: r.Dst}
}

// CPRequest describes one CP-ALS decomposition to admit.
type CPRequest struct {
	// X is the input tensor (*tensor.Dense or *tensor.Sparse; sparse runs
	// the same sweep structure over the sparse MTTKRP kernel).
	X tensor.Interface
	// Config configures the run. Pool and Threads are overridden by the
	// scheduler: the decomposition executes on the lease granted at
	// admission, with the worker budget the admission policy assigns
	// (re-applied at every sweep boundary, so a long decomposition
	// shrinks and re-grows with the load around it).
	Config cpd.Config
	// CostHint and Weight mirror MTTKRPRequest's admission knobs.
	CostHint float64
	Weight   float64
}

// Ticket is the async handle for a submitted request. Exactly one of the
// typed getters matches the request kind; both block until completion.
type Ticket struct {
	done chan struct{}
	m    mat.View
	cp   *cpd.Result
	err  error
}

func newTicket() *Ticket { return &Ticket{done: make(chan struct{})} }

func failedTicket(err error) *Ticket {
	t := newTicket()
	t.err = err
	close(t.done)
	return t
}

// Done returns a channel closed when the request has completed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// MTTKRP blocks until completion and returns the result matrix.
func (t *Ticket) MTTKRP() (mat.View, error) {
	<-t.done
	return t.m, t.err
}

// CP blocks until completion and returns the decomposition result.
func (t *Ticket) CP() (*cpd.Result, error) {
	<-t.done
	return t.cp, t.err
}

// Err blocks until completion and returns the request's error, if any.
func (t *Ticket) Err() error {
	<-t.done
	return t.err
}

// fail completes the ticket with an error. Only the owner (scheduler or
// submit path) calls it, exactly once per ticket.
func (t *Ticket) fail(err error) {
	t.err = err
	close(t.done)
}

// validateMTTKRP performs the cheap structural checks worth failing
// synchronously; full shape validation happens inside core (panics there
// are recovered into the ticket).
func validateMTTKRP(r MTTKRPRequest) error {
	if r.X == nil {
		return errors.New("serve: nil tensor")
	}
	if len(r.Factors) != r.X.Order() {
		return fmt.Errorf("serve: %d factor matrices for an order-%d tensor", len(r.Factors), r.X.Order())
	}
	if r.Mode < 0 || r.Mode >= r.X.Order() {
		return fmt.Errorf("serve: mode %d out of range [0,%d)", r.Mode, r.X.Order())
	}
	return nil
}

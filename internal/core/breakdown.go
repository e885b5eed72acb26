package core

import (
	"fmt"
	"sync"
	"time"
)

// Phase labels one component of an MTTKRP's running time, matching the
// categories of the paper's Figure 6.
type Phase int

const (
	// PhaseGEMM is matrix-matrix multiplication time (all methods).
	PhaseGEMM Phase = iota
	// PhaseGEMV is multi-TTV time: the derivations of 2-step, MethodAuto's
	// split path and SweepAll, which contract an intermediate one mode at
	// a time.
	PhaseGEMV
	// PhaseFullKRP is full-KRP formation time (1-step external modes,
	// reorder baseline).
	PhaseFullKRP
	// PhaseLRKRP is left/right partial KRP time: forming K_L (and
	// expanding per-block KRP rows) in internal-mode 1-step, or forming
	// the one partial KRP of the contracted half in 2-step, MethodAuto's
	// split path and each half of SweepAll.
	PhaseLRKRP
	// PhaseReduce is the parallel reduction of private outputs (1-step).
	PhaseReduce
	// PhaseReorder is explicit tensor reordering time (baseline only).
	PhaseReorder
	numPhases
)

// String returns the figure legend label for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseGEMM:
		return "DGEMM"
	case PhaseGEMV:
		return "DGEMV"
	case PhaseFullKRP:
		return "Full KRP"
	case PhaseLRKRP:
		return "L&R KRP"
	case PhaseReduce:
		return "REDUCE"
	case PhaseReorder:
		return "REORDER"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Phases lists all phases in display order.
func Phases() []Phase {
	return []Phase{PhaseGEMM, PhaseGEMV, PhaseFullKRP, PhaseLRKRP, PhaseReduce, PhaseReorder}
}

// Breakdown accumulates per-phase wall time for one or more MTTKRP calls.
// For phases executed inside parallel regions, the recorded value is the
// maximum across workers (the wall time the phase is responsible for).
// Breakdown is safe for concurrent use by the workers of a single call.
type Breakdown struct {
	mu     sync.Mutex
	phases [numPhases]time.Duration
	total  time.Duration
}

// add records d for phase p (summing across sequential calls).
func (b *Breakdown) add(p Phase, d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.phases[p] += d
	b.mu.Unlock()
}

// addMax merges a worker-measured duration, keeping the max across the
// workers of the current parallel region: base is the phase total before
// the region started.
func (b *Breakdown) addMax(p Phase, base, d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.phases[p] < base+d {
		b.phases[p] = base + d
	}
	b.mu.Unlock()
}

// addTotal records end-to-end time.
func (b *Breakdown) addTotal(d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.total += d
	b.mu.Unlock()
}

// Get returns the accumulated time of phase p.
func (b *Breakdown) Get(p Phase) time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.phases[p]
}

// Total returns the accumulated end-to-end time.
func (b *Breakdown) Total() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Reset clears all accumulated times.
func (b *Breakdown) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.phases = [numPhases]time.Duration{}
	b.total = 0
	b.mu.Unlock()
}

// Scale divides all accumulated times by k (for per-iteration averages).
func (b *Breakdown) Scale(k int) {
	if b == nil || k <= 1 {
		return
	}
	b.mu.Lock()
	for i := range b.phases {
		b.phases[i] /= time.Duration(k)
	}
	b.total /= time.Duration(k)
	b.mu.Unlock()
}

// String formats the non-zero phases for logs and tables.
func (b *Breakdown) String() string {
	if b == nil {
		return "<nil>"
	}
	s := ""
	for _, p := range Phases() {
		if d := b.Get(p); d > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%v", p, d)
		}
	}
	if s == "" {
		s = "(empty)"
	}
	return s + fmt.Sprintf(" total=%v", b.Total())
}

// stopwatch measures one phase region on one goroutine.
type stopwatch struct {
	start time.Time
}

func startWatch() stopwatch { return stopwatch{start: time.Now()} }

func (s stopwatch) elapsed() time.Duration { return time.Since(s.start) }

package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/tensor"
)

func TestBreakdownNilSafe(t *testing.T) {
	var b *Breakdown
	b.add(PhaseGEMM, time.Second) // must not panic
	b.addMax(PhaseGEMM, 0, time.Second)
	b.addTotal(time.Second)
	b.Reset()
	b.Scale(2)
	if b.Get(PhaseGEMM) != 0 || b.Total() != 0 {
		t.Error("nil breakdown should read zero")
	}
	if b.String() != "<nil>" {
		t.Errorf("nil String = %q", b.String())
	}
}

func TestBreakdownAccumulateAndScale(t *testing.T) {
	var b Breakdown
	b.add(PhaseGEMM, 2*time.Second)
	b.add(PhaseGEMM, 2*time.Second)
	b.add(PhaseFullKRP, time.Second)
	b.addTotal(6 * time.Second)
	if b.Get(PhaseGEMM) != 4*time.Second {
		t.Errorf("GEMM = %v", b.Get(PhaseGEMM))
	}
	b.Scale(2)
	if b.Get(PhaseGEMM) != 2*time.Second || b.Total() != 3*time.Second {
		t.Error("scale wrong")
	}
	b.Reset()
	if b.Get(PhaseGEMM) != 0 {
		t.Error("reset failed")
	}
}

func TestBreakdownAddMaxSemantics(t *testing.T) {
	var b Breakdown
	b.add(PhaseGEMM, 10*time.Millisecond) // prior accumulation
	base := b.Get(PhaseGEMM)
	// Three workers: max should win, on top of the base.
	var wg sync.WaitGroup
	for _, d := range []time.Duration{5, 30, 20} {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			b.addMax(PhaseGEMM, base, d*time.Millisecond)
		}(d)
	}
	wg.Wait()
	if got := b.Get(PhaseGEMM); got != 40*time.Millisecond {
		t.Errorf("addMax result = %v, want 40ms", got)
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b.add(PhaseGEMV, time.Second)
	s := b.String()
	if !strings.Contains(s, "DGEMV") || !strings.Contains(s, "total") {
		t.Errorf("String = %q", s)
	}
	var empty Breakdown
	if !strings.Contains(empty.String(), "empty") {
		t.Errorf("empty String = %q", empty.String())
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseGEMM: "DGEMM", PhaseGEMV: "DGEMV", PhaseFullKRP: "Full KRP",
		PhaseLRKRP: "L&R KRP", PhaseReduce: "REDUCE", PhaseReorder: "REORDER",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("phase %d = %q, want %q", int(p), p.String(), s)
		}
	}
	if Phase(77).String() == "" {
		t.Error("unknown phase should stringify")
	}
	if len(Phases()) != int(numPhases) {
		t.Errorf("Phases() has %d entries, want %d", len(Phases()), numPhases)
	}
}

// TestBreakdownCoversTotal runs each method with instrumentation and checks
// that phases are populated appropriately and roughly bounded by the total.
func TestBreakdownCoversTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.Random(rng, 12, 10, 14)
	u := randomFactors(rng, x, 6)
	// MethodAuto's split path runs on both external modes of x4 and forms
	// no full KRP.
	x4 := tensor.Random(rng, 6, 5, 4, 7)
	u4 := randomFactors(rng, x4, 6)
	cases := []struct {
		method Method
		x      *tensor.Dense
		u      []mat.View
		n      int
		expect []Phase
	}{
		{MethodOneStep, x, u, 0, []Phase{PhaseFullKRP, PhaseGEMM}},
		{MethodOneStep, x, u, 2, []Phase{PhaseFullKRP, PhaseGEMM}},
		{MethodOneStep, x, u, 1, []Phase{PhaseLRKRP, PhaseGEMM}},
		{MethodTwoStep, x, u, 1, []Phase{PhaseLRKRP, PhaseGEMM, PhaseGEMV}},
		{MethodReorder, x, u, 1, []Phase{PhaseReorder, PhaseFullKRP, PhaseGEMM}},
		{MethodAuto, x4, u4, 0, []Phase{PhaseLRKRP, PhaseGEMM, PhaseGEMV}},
		{MethodAuto, x4, u4, 3, []Phase{PhaseLRKRP, PhaseGEMM, PhaseGEMV}},
	}
	for _, tc := range cases {
		var bd Breakdown
		Compute(tc.method, tc.x, tc.u, tc.n, Options{Threads: 2, Breakdown: &bd})
		if bd.Total() <= 0 {
			t.Errorf("%v n=%d: no total recorded", tc.method, tc.n)
		}
		for _, p := range tc.expect {
			if bd.Get(p) <= 0 {
				t.Errorf("%v n=%d: phase %v not recorded (%v)", tc.method, tc.n, p, &bd)
			}
		}
		// Sum of phases should not wildly exceed total (phases are
		// measured inside the total window; allow scheduling slack).
		var sum time.Duration
		for _, p := range Phases() {
			sum += bd.Get(p)
		}
		if sum > 3*bd.Total()+time.Millisecond {
			t.Errorf("%v n=%d: phase sum %v exceeds total %v", tc.method, tc.n, sum, bd.Total())
		}
		if tc.method == MethodAuto && (bd.Get(PhaseFullKRP) != 0 || bd.Get(PhaseReduce) != 0) {
			t.Errorf("%v n=%d: split path recorded full-KRP or reduce time (%v)", tc.method, tc.n, &bd)
		}
	}
}

func randomFactors(rng *rand.Rand, x *tensor.Dense, c int) []mat.View {
	u := make([]mat.View, x.Order())
	for k := 0; k < x.Order(); k++ {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}
	return u
}

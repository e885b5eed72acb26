package parallel

import (
	"sync/atomic"
	"testing"
)

// poolsUnderTest returns a persistent pool and the default pool, so every
// dispatch primitive is exercised on both.
func poolsUnderTest(t *testing.T) map[string]*Pool {
	t.Helper()
	p := NewPool(4)
	t.Cleanup(p.Close)
	return map[string]*Pool{
		"persistent": p,
		"default":    defaultPool(),
	}
}

func TestPoolForCoversRangeOnce(t *testing.T) {
	for name, p := range poolsUnderTest(t) {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, tw := range []int{1, 2, 4, 9} {
				hits := make([]int32, n)
				p.For(tw, n, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s: For(t=%d,n=%d): index %d visited %d times", name, tw, n, i, h)
					}
				}
			}
		}
	}
}

func TestPoolRunDistinctWorkers(t *testing.T) {
	for name, p := range poolsUnderTest(t) {
		const tw = 4
		var seen [tw]int32
		p.Run(tw, func(w int) {
			atomic.AddInt32(&seen[w], 1)
		})
		for w, s := range seen {
			if s != 1 {
				t.Fatalf("%s: worker %d ran %d times", name, w, s)
			}
		}
	}
}

func TestPoolGrowsBeyondInitialWorkers(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var seen [8]int32
	p.Run(8, func(w int) { atomic.AddInt32(&seen[w], 1) })
	for w, s := range seen {
		if s != 1 {
			t.Fatalf("worker %d ran %d times after growth", w, s)
		}
	}
	if got := p.Workers(); got != 8 {
		t.Fatalf("Workers() = %d after growing to 8", got)
	}
}

func TestPoolSerialDispatchReuse(t *testing.T) {
	// Thousands of back-to-back dispatches on the same pool must behave
	// identically (this is the CP-ALS usage pattern).
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	for i := 0; i < 2000; i++ {
		p.For(4, 100, func(_, lo, hi int) {
			total.Add(int64(hi - lo))
		})
	}
	if got := total.Load(); got != 200000 {
		t.Fatalf("total = %d, want 200000", got)
	}
}

func TestBlockRangeMatchesSplit(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 100, 4096} {
		for tw := 1; tw <= 9; tw++ {
			ranges := Split(n, tw)
			for w := 0; w < tw; w++ {
				lo, hi := BlockRange(n, tw, w)
				if lo != ranges[w].Lo || hi != ranges[w].Hi {
					t.Fatalf("BlockRange(%d,%d,%d) = [%d,%d), Split gives [%d,%d)",
						n, tw, w, lo, hi, ranges[w].Lo, ranges[w].Hi)
				}
			}
		}
	}
}

func TestReduceSumValidatesLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ReduceSum with unequal buffer lengths did not panic")
		}
	}()
	defaultPool().ReduceSum(2, [][]float64{make([]float64, 4), make([]float64, 3)})
}

func TestReduceSumMethodValidatesLengths(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Pool.ReduceSum with unequal buffer lengths did not panic")
		}
	}()
	p.ReduceSum(2, [][]float64{make([]float64, 2), make([]float64, 2), make([]float64, 5)})
}

func TestReduceSumOnPools(t *testing.T) {
	for name, p := range poolsUnderTest(t) {
		parts := make([][]float64, 4)
		for w := range parts {
			parts[w] = make([]float64, 33)
			for i := range parts[w] {
				parts[w][i] = float64(w + 1)
			}
		}
		got := p.ReduceSum(3, parts)
		for i, v := range got {
			if v != 1+2+3+4 {
				t.Fatalf("%s: ReduceSum[%d] = %v, want 10", name, i, v)
			}
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ws := p.Acquire()
	buf := ws.Arena(0).Float64("test", 128)
	buf[0] = 42
	ws.Release()

	ws2 := p.Acquire()
	buf2 := ws2.Arena(0).Float64("test", 128)
	if &buf[0] != &buf2[0] {
		t.Error("workspace free-list did not hand back the same arena buffer")
	}
	if buf2[0] != 42 {
		t.Error("arena contents were not preserved across release/acquire")
	}
	// Growing the same tag must still work.
	big := ws2.Arena(0).Float64("test", 4096)
	if len(big) != 4096 {
		t.Fatalf("grown buffer has length %d", len(big))
	}
	ws2.Release()
}

func TestWorkspaceDistinctWhileHeld(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	a := p.Acquire()
	b := p.Acquire()
	if a == b {
		t.Fatal("two concurrently held workspaces are the same object")
	}
	ab := a.Arena(0).Float64("x", 16)
	bb := b.Arena(0).Float64("x", 16)
	if &ab[0] == &bb[0] {
		t.Fatal("two held workspaces share an arena buffer")
	}
	a.Release()
	b.Release()
}

func TestFrameCachedPerWorkspace(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ws := p.Acquire()
	defer ws.Release()
	type frame struct{ n int }
	built := 0
	build := func() any { built++; return &frame{} }
	f1 := ws.Frame("k", build).(*frame)
	f1.n = 7
	f2 := ws.Frame("k", build).(*frame)
	if f1 != f2 || f2.n != 7 || built != 1 {
		t.Fatalf("frame not cached: f1=%p f2=%p built=%d", f1, f2, built)
	}
}

func TestPoolDispatchSteadyStateAllocFree(t *testing.T) {
	// The dispatch path itself must not allocate when the body closure is
	// pre-bound (the kernel-frame pattern): this is what makes whole-kernel
	// zero-alloc steady state possible.
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	body := func(_, lo, hi int) { sink.Add(int64(hi - lo)) }
	runBody := func(w int) { sink.Add(int64(w)) }
	p.For(4, 64, body)
	p.Run(4, runBody)
	parts := [][]float64{make([]float64, 256), make([]float64, 256)}

	if a := testing.AllocsPerRun(50, func() { p.For(4, 64, body) }); a > 0 {
		t.Errorf("Pool.For allocates %.1f/op with a pre-bound body", a)
	}
	if a := testing.AllocsPerRun(50, func() { p.Run(4, runBody) }); a > 0 {
		t.Errorf("Pool.Run allocates %.1f/op with a pre-bound body", a)
	}
	if a := testing.AllocsPerRun(50, func() { p.ReduceSum(4, parts) }); a > 0 {
		t.Errorf("Pool.ReduceSum allocates %.1f/op", a)
	}
}

func TestClosedPoolPanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("dispatch on a closed pool did not panic")
		}
	}()
	p.Run(2, func(int) {})
}

package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct {
		t, n, want int
	}{
		{0, 10, DefaultThreads()},
		{-3, 10, DefaultThreads()},
		{4, 10, 4},
		{16, 4, 4},
		{5, 0, 5},
		{3, 3, 3},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := Clamp(c.t, c.n); got != c.want {
			t.Errorf("Clamp(%d,%d) = %d, want %d", c.t, c.n, got, c.want)
		}
	}
}

func TestClampNeverExceedsItems(t *testing.T) {
	f := func(tt, n uint8) bool {
		nn := int(n)
		got := Clamp(int(tt), nn)
		if got < 1 {
			return false
		}
		if nn > 0 && got > nn {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitCoversRangeExactly(t *testing.T) {
	f := func(n16 uint16, t8 uint8) bool {
		n := int(n16 % 4096)
		tw := int(t8%64) + 1
		ranges := Split(n, tw)
		if len(ranges) != tw {
			return false
		}
		prev := 0
		total := 0
		for _, r := range ranges {
			if r.Lo != prev || r.Hi < r.Lo {
				return false
			}
			total += r.Len()
			prev = r.Hi
		}
		return total == n && prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSplitBalanced(t *testing.T) {
	ranges := Split(10, 3)
	sizes := []int{4, 3, 3}
	for i, r := range ranges {
		if r.Len() != sizes[i] {
			t.Errorf("range %d has size %d, want %d", i, r.Len(), sizes[i])
		}
	}
	// Sizes must differ by at most one for any split.
	for n := 0; n < 50; n++ {
		for tw := 1; tw < 9; tw++ {
			min, max := n+1, -1
			for _, r := range Split(n, tw) {
				if r.Len() < min {
					min = r.Len()
				}
				if r.Len() > max {
					max = r.Len()
				}
			}
			if max-min > 1 {
				t.Fatalf("Split(%d,%d) unbalanced: min %d max %d", n, tw, min, max)
			}
		}
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 7} {
		n := 1000
		seen := make([]int32, n)
		defaultPool().For(threads, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, c)
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	called := false
	defaultPool().For(4, 0, func(_, _, _ int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestForWorkerIDsDistinct(t *testing.T) {
	n := 64
	threads := 4
	var ids [4]int32
	defaultPool().For(threads, n, func(w, lo, hi int) {
		atomic.AddInt32(&ids[w], 1)
	})
	total := int32(0)
	for _, c := range ids {
		if c > 1 {
			t.Errorf("worker invoked %d times, want at most 1", c)
		}
		total += c
	}
	if total == 0 {
		t.Error("no workers ran")
	}
}

func TestRunAllWorkersExecute(t *testing.T) {
	for _, threads := range []int{1, 2, 6} {
		var count int32
		defaultPool().Run(threads, func(w int) {
			if w < 0 || w >= threads {
				t.Errorf("worker id %d out of range", w)
			}
			atomic.AddInt32(&count, 1)
		})
		if int(count) != threads {
			t.Fatalf("Run(%d) executed %d bodies", threads, count)
		}
	}
}

func TestReduceSum(t *testing.T) {
	n := 513
	parts := make([][]float64, 4)
	for w := range parts {
		parts[w] = make([]float64, n)
		for i := range parts[w] {
			parts[w][i] = float64(w + 1)
		}
	}
	got := defaultPool().ReduceSum(2, parts)
	for i, v := range got {
		if v != 1+2+3+4 {
			t.Fatalf("element %d = %v, want 10", i, v)
		}
	}
}

func TestReduceSumSingleAndEmpty(t *testing.T) {
	if got := defaultPool().ReduceSum(2, nil); got != nil {
		t.Errorf("ReduceSum(nil) = %v, want nil", got)
	}
	one := [][]float64{{1, 2, 3}}
	got := defaultPool().ReduceSum(2, one)
	if &got[0] != &one[0][0] {
		t.Error("single-buffer reduce should return the buffer itself")
	}
}

func TestReduceSumMatchesSequential(t *testing.T) {
	f := func(seed uint8) bool {
		n := 97
		w := int(seed%5) + 1
		parts := make([][]float64, w)
		want := make([]float64, n)
		for k := range parts {
			parts[k] = make([]float64, n)
			for i := range parts[k] {
				v := float64((i*31+k*17+int(seed))%101) / 7
				parts[k][i] = v
				want[i] += v
			}
		}
		got := defaultPool().ReduceSum(3, parts)
		for i := range want {
			if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// newDsts returns SweepAll destinations for x at rank c.
func newDsts(x *tensor.Dense, c int) []mat.View {
	d := make([]mat.View, x.Order())
	for k := range d {
		d[k] = mat.NewDense(x.Dim(k), c)
	}
	return d
}

// TestSweepAllMatchesPerModeCalls verifies the recomputation-avoidance
// scheme computes exactly the per-mode MTTKRPs of an ALS sweep, including
// the mid-sweep factor updates: after each mode's result is delivered, the
// test mutates that factor (as ALS would) and checks the next mode's
// result against a fresh per-mode computation with the current factors.
func TestSweepAllMatchesPerModeCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][]int{{4, 5}, {4, 5, 6}, {3, 4, 2, 5}, {2, 3, 2, 3, 2}, {1, 4, 3}, {2, 2, 2, 2, 2, 2}} {
		x, u := randomProblem(rng, dims, 4)
		// Shadow copy that receives the same simulated updates, used to
		// compute the expected per-mode results independently.
		shadow := make([]mat.View, len(u))
		for i := range u {
			shadow[i] = u[i].Clone()
		}
		modeSeen := -1
		SweepAll(x, u, newDsts(x, 4), Options{Threads: 2}, func(n int, m mat.View) {
			if n != modeSeen+1 {
				t.Fatalf("dims=%v: modes out of order: got %d after %d", dims, n, modeSeen)
			}
			modeSeen = n
			want := Naive(x, shadow, n)
			if !mat.ApproxEqual(m, want, 1e-10) {
				t.Fatalf("dims=%v mode=%d: sweep result differs from per-mode MTTKRP (%g)",
					dims, n, mat.MaxAbsDiff(m, want))
			}
			// Simulate the ALS factor update: overwrite with new values.
			fresh := mat.RandomDense(u[n].R, u[n].C, rng)
			u[n] = fresh
			shadow[n] = fresh.Clone()
		})
		if modeSeen != len(dims)-1 {
			t.Fatalf("dims=%v: only %d modes delivered", dims, modeSeen+1)
		}
	}
}

func TestSweepAllWithoutUpdatesMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, u := randomProblem(rng, []int{5, 4, 3, 4}, 6)
	// If the callback does not update factors, every mode must equal the
	// plain MTTKRP with the original factors.
	SweepAll(x, u, newDsts(x, 6), Options{Threads: 1}, func(n int, m mat.View) {
		want := Naive(x, u, n)
		if !mat.ApproxEqual(m, want, 1e-10) {
			t.Errorf("mode %d: mismatch %g", n, mat.MaxAbsDiff(m, want))
		}
	})
}

// TestSweepAllBreakdown pins that the breakdown records the sweep's
// phases and that its total covers SweepAll's own work only: the update
// callbacks (the caller's factor solves) are not MTTKRP time.
func TestSweepAllBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, u := randomProblem(rng, []int{8, 9, 10}, 5)
	var bd Breakdown
	count := 0
	SweepAll(x, u, newDsts(x, 5), Options{Threads: 2, Breakdown: &bd}, func(int, mat.View) { count++ })
	if count != 3 {
		t.Fatalf("delivered %d modes", count)
	}
	if bd.Get(PhaseGEMM) <= 0 || bd.Get(PhaseGEMV) <= 0 || bd.Total() <= 0 {
		t.Errorf("breakdown not populated: %v", &bd)
	}

	const nap = 50 * time.Millisecond
	x, u = randomProblem(rng, []int{3, 2, 3}, 2)
	bd.Reset()
	SweepAll(x, u, newDsts(x, 2), Options{Threads: 2, Breakdown: &bd}, func(int, mat.View) { time.Sleep(nap) })
	if bd.Total() >= nap {
		t.Errorf("breakdown total %v counts the update callbacks (3 × %v)", bd.Total(), nap)
	}
}

func TestSplitPointBalances(t *testing.T) {
	for _, dims := range [][]int{
		{10, 10},
		{10, 10, 10},     // 10+100 ties 100+10; s=1 found first
		{10, 10, 10, 10}, // 100+100 minimal
		{2, 100, 2},      // 2+200 ties 200+2
		{113, 30, 100, 100},
	} {
		got := SplitPoint(dims)
		// Verify optimality rather than the exact index (ties allowed).
		cost := func(s int) int {
			left, right := 1, 1
			for _, d := range dims[:s] {
				left *= d
			}
			for _, d := range dims[s:] {
				right *= d
			}
			return left + right
		}
		for s := 1; s < len(dims); s++ {
			if cost(s) < cost(got) {
				t.Errorf("dims=%v: SplitPoint %d cost %d beaten by s=%d cost %d",
					dims, got, cost(got), s, cost(s))
			}
		}
	}
}

// Property: for random shapes and random mid-sweep updates, SweepAll
// agrees with per-mode computation throughout.
func TestSweepAllQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Intn(4) + 2
		dims := make([]int, order)
		for i := range dims {
			dims[i] = rng.Intn(4) + 1
		}
		x, u := randomProblem(rng, dims, rng.Intn(4)+1)
		ok := true
		SweepAll(x, u, newDsts(x, u[0].C), Options{Threads: rng.Intn(3) + 1}, func(n int, m mat.View) {
			if !mat.ApproxEqual(m, Naive(x, u, n), 1e-9) {
				ok = false
			}
			u[n] = mat.RandomDense(u[n].R, u[n].C, rng)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSweepAllLeaseResizeBitIdentical pins SweepAll's width invariance:
// on a lease whose update callback resizes it between modes (so the next
// derivation's phase hook applies the new width), every mode's result
// equals, bit for bit, the same sweep on a 1-worker pool.
func TestSweepAllLeaseResizeBitIdentical(t *testing.T) {
	one := parallel.NewPool(1)
	defer one.Close()
	wide := parallel.NewPool(8)
	defer wide.Close()
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][]int{{14, 12}, {14, 12, 10}, {23, 17, 19, 29}, {6, 5, 4, 5, 3}, {4, 3, 5, 2, 3, 4}} {
		x, u := randomProblem(rng, dims, 5)
		// Both runs apply the same deterministic update: scale the raw
		// result into the factor, as a solve would replace it.
		sweep := func(p parallel.Executor, between func(n int)) [][]float64 {
			f := make([]mat.View, len(u))
			for k := range u {
				f[k] = u[k].Clone()
			}
			var got [][]float64
			SweepAll(x, f, newDsts(x, 5), Options{Pool: p, PhaseNotify: func() { parallel.Reconcile(p) }}, func(n int, m mat.View) {
				got = append(got, append([]float64(nil), m.Data...))
				for i := range f[n].Data {
					f[n].Data[i] = m.Data[i] / float64(1+i%7)
				}
				between(n)
			})
			return got
		}
		want := sweep(one, func(int) {})
		l := wide.Lease(8)
		widths := []int{3, 8, 2, 5, 1, 8}
		got := sweep(l, func(n int) { l.Resize(widths[n]) })
		l.Close()
		for n := range want {
			for i := range want[n] {
				if math.Float64bits(got[n][i]) != math.Float64bits(want[n][i]) {
					t.Fatalf("dims=%v mode %d: element %d is %v on a resized lease, %v on 1 worker",
						dims, n, i, got[n][i], want[n][i])
				}
			}
		}
	}
}

// TestDeriveBitIdenticalToTTV pins the allocation-free derivation to a
// chain of tensor.Dense.TTV calls, including the TTV's skip of zero vector
// entries: every result element is bit-identical.
func TestDeriveBitIdenticalToTTV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, dims := range [][]int{{7}, {5, 6}, {4, 3, 5}, {3, 4, 2, 3}, {2, 3, 2, 3, 2}} {
		const c = 4
		size := tensor.New(dims...).Size()
		inter := mat.FromColMajor(make([]float64, size*c), size, c)
		for i := range inter.Data {
			inter.Data[i] = rng.NormFloat64()
		}
		factors := make([]mat.View, len(dims))
		for k, d := range dims {
			factors[k] = mat.RandomDense(d, c, rng)
			factors[k].Set(rng.Intn(d), rng.Intn(c), 0) // exercise the zero skip
		}
		for mode := range dims {
			out := mat.NewDense(dims[mode], c)
			ws := pool.Acquire()
			deriveFromIntermediate(pool, ws, 3, inter, dims, factors, mode, out)
			ws.Release()
			for col := 0; col < c; col++ {
				sub := tensor.FromData(append([]float64(nil), inter.Data[col*size:(col+1)*size]...), dims...)
				for k := len(dims) - 1; k >= 0; k-- {
					if k != mode {
						v := make([]float64, dims[k])
						for i := range v {
							v[i] = factors[k].At(i, col)
						}
						sub = sub.TTV(k, v)
					}
				}
				for i, want := range sub.Data() {
					if got := out.At(i, col); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dims=%v mode %d (%d,%d): derived %v, TTV chain %v", dims, mode, i, col, got, want)
					}
				}
			}
		}
	}
}

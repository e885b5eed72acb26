package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestNewAndAccessors(t *testing.T) {
	d := New(3, 4, 5)
	if d.Order() != 3 || d.Size() != 60 {
		t.Fatalf("order %d size %d", d.Order(), d.Size())
	}
	if d.Dim(0) != 3 || d.Dim(1) != 4 || d.Dim(2) != 5 {
		t.Fatal("dims wrong")
	}
	if d.SizeLeft(0) != 1 || d.SizeLeft(1) != 3 || d.SizeLeft(2) != 12 {
		t.Fatalf("left sizes: %d %d %d", d.SizeLeft(0), d.SizeLeft(1), d.SizeLeft(2))
	}
	if d.SizeRight(0) != 20 || d.SizeRight(1) != 5 || d.SizeRight(2) != 1 {
		t.Fatalf("right sizes: %d %d %d", d.SizeRight(0), d.SizeRight(1), d.SizeRight(2))
	}
	if d.SizeOther(1) != 15 {
		t.Fatalf("SizeOther(1) = %d", d.SizeOther(1))
	}
	dims := d.Dims()
	dims[0] = 99
	if d.Dim(0) == 99 {
		t.Error("Dims() must return a copy")
	}
}

func TestNewRejectsBadDims(t *testing.T) {
	for _, dims := range [][]int{{0}, {3, 0, 2}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", dims)
				}
			}()
			New(dims...)
		}()
	}
}

func TestFromData(t *testing.T) {
	buf := []float64{1, 2, 3, 4, 5, 6}
	d := FromData(buf, 2, 3)
	if d.At(1, 2) != 6 || d.At(0, 1) != 3 {
		t.Error("FromData layout wrong")
	}
	d.Set(42, 0, 0)
	if buf[0] != 42 {
		t.Error("FromData must not copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	FromData(buf, 2, 2)
}

func TestLinearizationMatchesPaperFormula(t *testing.T) {
	// ℓ = Σ i_n · I^L_n with mode 0 fastest.
	d := New(2, 3, 4)
	if got := d.LinearIndex([]int{1, 2, 3}); got != 1+2*2+3*6 {
		t.Errorf("linear index = %d, want %d", got, 1+4+18)
	}
	if got := d.LinearIndex([]int{0, 0, 0}); got != 0 {
		t.Errorf("origin index = %d", got)
	}
	if got := d.LinearIndex([]int{1, 0, 0}); got != 1 {
		t.Error("mode 0 must vary fastest")
	}
}

func TestIndexRoundTripQuick(t *testing.T) {
	d := New(3, 5, 2, 4)
	idx := make([]int, 4)
	f := func(l16 uint16) bool {
		l := int(l16) % d.Size()
		d.MultiIndex(l, idx)
		return d.LinearIndex(idx) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexBoundsPanics(t *testing.T) {
	d := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LinearIndex(%v) should panic", idx)
				}
			}()
			d.LinearIndex(idx)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("MultiIndex out of range should panic")
		}
	}()
	d.MultiIndex(4, make([]int, 2))
}

func TestAtSetFillClone(t *testing.T) {
	d := New(2, 2)
	d.Set(3.5, 1, 0)
	if d.At(1, 0) != 3.5 {
		t.Error("At/Set wrong")
	}
	c := d.Clone()
	c.Set(-1, 1, 0)
	if d.At(1, 0) != 3.5 {
		t.Error("clone aliases")
	}
	d.Fill(2)
	for _, v := range d.Data() {
		if v != 2 {
			t.Fatal("fill failed")
		}
	}
}

func TestNormAndInner(t *testing.T) {
	d := New(2, 2)
	copy(d.Data(), []float64{1, 2, 3, 4})
	want := math.Sqrt(1 + 4 + 9 + 16)
	for _, threads := range []int{1, 2, 4} {
		if got := d.Norm(nil, threads); math.Abs(got-want) > 1e-14 {
			t.Errorf("Norm(t=%d) = %v, want %v", threads, got, want)
		}
	}
}

func TestNormParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Random(rng, 7, 11, 5)
	seq := d.NormSquared(nil, 1)
	for threads := 2; threads <= 8; threads++ {
		if par := d.NormSquared(nil, threads); math.Float64bits(par) != math.Float64bits(seq) {
			t.Errorf("threads=%d: %v vs %v", threads, par, seq)
		}
	}
}

// TestNormBitIdenticalAcrossWidths pins that a norm's bits follow the data
// alone: not the executor, its width or the requested worker count. A
// served CP computes ‖X‖ on its lease, so this is what keeps a fit's bits
// independent of the budget it was granted.
func TestNormBitIdenticalAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	small := Random(rng, 7, 11, 5) // one block
	large := Random(rng, 61, 47, 53)
	sparse := RandomSparse(rng, 0.2, 61, 47, 53)
	if large.Size() <= normBlock {
		t.Fatalf("%d entries fit one block of %d; the multi-block case is untested", large.Size(), normBlock)
	}
	cases := []struct {
		name string
		norm func(parallel.Executor, int) float64
		one  []float64 // the stored values when they fit one block
	}{
		{"dense 7x11x5", small.NormSquared, small.Data()},
		{"dense 61x47x53", large.NormSquared, nil},
		{"sparse 61x47x53", sparse.NormSquared, sparse.Values()},
	}
	for _, c := range cases {
		want := c.norm(nil, 1)
		if c.one != nil {
			seq := 0.0
			for _, v := range c.one {
				seq += v * v
			}
			if math.Float64bits(want) != math.Float64bits(seq) {
				t.Errorf("%s: one-block norm² %v, sequential sum %v", c.name, want, seq)
			}
		}
		check := func(on string, p parallel.Executor) {
			for th := 0; th <= 3; th++ {
				if got := c.norm(p, th); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s on %s, t=%d: %v, want %v", c.name, on, th, got, want)
				}
			}
		}
		check("nil executor", nil)
		for w := 1; w <= 4; w++ {
			p := parallel.NewPool(w)
			check(fmt.Sprintf("pool of %d", w), p)
			l := p.Lease(w)
			check(fmt.Sprintf("lease of %d", w), l)
			l.Close()
			p.Close()
		}
	}
}

func TestAddScaledAndDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := Random(rng, 3, 4)
	y := Random(rng, 3, 4)
	z := x.Clone()
	z.AddScaled(-1, x)
	for _, v := range z.Data() {
		if v != 0 {
			t.Fatal("x - x != 0")
		}
	}
	if MaxAbsDiff(x, x) != 0 {
		t.Error("self diff not 0")
	}
	if !ApproxEqual(x, x.Clone(), 0) {
		t.Error("clone not equal")
	}
	if ApproxEqual(x, y, 1e-15) {
		t.Error("different random tensors equal")
	}
	if ApproxEqual(x, New(4, 3), 1) {
		t.Error("shape mismatch must not be equal")
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	a := Random(rand.New(rand.NewSource(42)), 4, 4)
	b := Random(rand.New(rand.NewSource(42)), 4, 4)
	if MaxAbsDiff(a, b) != 0 {
		t.Error("same seed should give same tensor")
	}
}

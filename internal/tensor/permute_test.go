package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestPermuteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Random(rng, 3, 4, 5)
	y := d.Permute(nil, 2, identityPerm(3))
	if MaxAbsDiff(d, y) != 0 {
		t.Error("identity permutation changed entries")
	}
}

func TestPermuteEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Random(rng, 2, 3, 4)
	perm := []int{2, 0, 1} // Y(i2, i0, i1) = X(i0, i1, i2)
	y := d.Permute(nil, 1, perm)
	if y.Dim(0) != 4 || y.Dim(1) != 2 || y.Dim(2) != 3 {
		t.Fatalf("dims %v", y.Dims())
	}
	for i0 := 0; i0 < 2; i0++ {
		for i1 := 0; i1 < 3; i1++ {
			for i2 := 0; i2 < 4; i2++ {
				if y.At(i2, i0, i1) != d.At(i0, i1, i2) {
					t.Fatalf("mismatch at (%d,%d,%d)", i0, i1, i2)
				}
			}
		}
	}
}

func TestPermuteParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := Random(rng, 5, 6, 7, 2)
	perm := []int{3, 1, 0, 2}
	want := d.Permute(nil, 1, perm)
	for _, threads := range []int{2, 3, 8} {
		got := d.Permute(nil, threads, perm)
		if MaxAbsDiff(want, got) != 0 {
			t.Errorf("threads=%d: parallel permute differs", threads)
		}
	}
}

func TestPermuteInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Intn(4) + 1
		dims := make([]int, order)
		for i := range dims {
			dims[i] = rng.Intn(4) + 1
		}
		d := Random(rng, dims...)
		perm := rng.Perm(order)
		inv := make([]int, order)
		for k, p := range perm {
			inv[p] = k
		}
		back := d.Permute(nil, 2, perm).Permute(nil, 2, inv)
		return MaxAbsDiff(d, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPermuteValidation(t *testing.T) {
	d := New(2, 3)
	for _, perm := range [][]int{{0}, {0, 0}, {0, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Permute(%v) should panic", perm)
				}
			}()
			d.Permute(nil, 1, perm)
		}()
	}
}

// TestModeToFrontMatchesUnfold: permuting mode n to the front and taking
// X'_(0) (a plain view) must equal the explicit Unfold of mode n — the
// baseline's permute+view structure.
func TestModeToFrontMatchesUnfold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := Random(rng, 3, 4, 5, 2)
	for n := 0; n < 4; n++ {
		p := d.Permute(nil, 2, ModeToFront(4, n))
		viaPermute := p.Matricize(0)
		viaUnfold := d.Unfold(nil, 2, n)
		if !mat.ApproxEqual(viaPermute, viaUnfold, 0) {
			t.Errorf("mode %d: permute-then-view != unfold", n)
		}
	}
}

func TestModeToFrontShape(t *testing.T) {
	got := ModeToFront(4, 2)
	want := []int{2, 0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ModeToFront(4,2) = %v, want %v", got, want)
		}
	}
}

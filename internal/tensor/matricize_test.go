package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// unfoldRef builds X_(n) column-major by walking every entry with
// multi-index arithmetic — the definition, independent of the optimized
// layout reasoning.
func unfoldRef(d *Dense, n int) mat.View {
	in := d.Dim(n)
	cols := d.SizeOther(n)
	out := mat.NewColMajor(in, cols)
	idx := make([]int, d.Order())
	for l := 0; l < d.Size(); l++ {
		d.MultiIndex(l, idx)
		// Column index: linearization of all modes but n, smaller modes
		// varying faster.
		col := 0
		stride := 1
		for k := 0; k < d.Order(); k++ {
			if k == n {
				continue
			}
			col += idx[k] * stride
			stride *= d.Dim(k)
		}
		out.Set(idx[n], col, d.Data()[l])
	}
	return out
}

func TestUnfoldMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][]int{{4}, {3, 5}, {2, 3, 4}, {3, 1, 4, 2}, {2, 2, 2, 2, 2}} {
		d := Random(rng, dims...)
		for n := 0; n < d.Order(); n++ {
			for _, threads := range []int{1, 3} {
				got := d.Unfold(nil, threads, n)
				want := unfoldRef(d, n)
				if !mat.ApproxEqual(got, want, 0) {
					t.Errorf("dims=%v mode=%d threads=%d: unfold mismatch", dims, n, threads)
				}
			}
		}
	}
}

func TestMatricizeMode0IsColMajorView(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Random(rng, 3, 4, 5)
	m := d.Matricize(0)
	if !m.IsColMajor() {
		t.Error("X_(0) should be column-major")
	}
	want := unfoldRef(d, 0)
	if !mat.ApproxEqual(m, want, 0) {
		t.Error("X_(0) view content wrong")
	}
	// It must be a view: writing through it changes the tensor.
	m.Set(0, 0, 99)
	if d.At(0, 0, 0) != 99 {
		t.Error("X_(0) is not a view")
	}
}

func TestMatricizeLastModeIsRowMajorView(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := Random(rng, 3, 4, 5)
	m := d.Matricize(2)
	if !m.IsRowMajor() {
		t.Error("X_(N-1) should be row-major")
	}
	want := unfoldRef(d, 2)
	if !mat.ApproxEqual(m, want, 0) {
		t.Error("X_(N-1) view content wrong")
	}
}

func TestMatricizeInternalPanics(t *testing.T) {
	d := New(2, 3, 4)
	defer func() {
		if recover() == nil {
			t.Error("internal-mode Matricize must panic")
		}
	}()
	d.Matricize(1)
}

// TestModeBlocksTileMatricization is the Figure 2 property: X_(n) equals
// the concatenation of I^R_n row-major blocks of size I_n × I^L_n.
func TestModeBlocksTileMatricization(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][]int{{3, 4, 5}, {2, 3, 4, 3}, {4, 2}, {2, 1, 3}} {
		d := Random(rng, dims...)
		for n := 0; n < d.Order(); n++ {
			full := unfoldRef(d, n)
			il := d.SizeLeft(n)
			nblk := d.NumModeBlocks(n)
			for j := 0; j < nblk; j++ {
				blk := d.ModeBlock(n, j)
				if !blk.IsRowMajor() {
					t.Fatalf("dims=%v n=%d block %d not row-major", dims, n, j)
				}
				want := full.Slice(0, d.Dim(n), j*il, (j+1)*il)
				if !mat.ApproxEqual(blk, want, 0) {
					t.Fatalf("dims=%v n=%d block %d content wrong", dims, n, j)
				}
			}
		}
	}
}

func TestModeBlockBounds(t *testing.T) {
	d := New(2, 3, 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range block must panic")
		}
	}()
	d.ModeBlock(1, 4) // I^R_1 = 4, so block 4 is out of range
}

// TestMatricizeRowModes checks X_(0:n): entry (r, c) with r the
// linearization of modes 0..n and c the linearization of modes n+1..N-1.
func TestMatricizeRowModes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Random(rng, 2, 3, 4, 2)
	idx := make([]int, 4)
	for n := 0; n < 3; n++ {
		m := d.MatricizeRowModes(n)
		if !m.IsColMajor() {
			t.Fatalf("X_(0:%d) not column-major", n)
		}
		rows := d.SizeLeft(n) * d.Dim(n)
		if m.R != rows || m.C != d.Size()/rows {
			t.Fatalf("X_(0:%d) is %dx%d", n, m.R, m.C)
		}
		for l := 0; l < d.Size(); l++ {
			d.MultiIndex(l, idx)
			r := 0
			stride := 1
			for k := 0; k <= n; k++ {
				r += idx[k] * stride
				stride *= d.Dim(k)
			}
			c := 0
			stride = 1
			for k := n + 1; k < 4; k++ {
				c += idx[k] * stride
				stride *= d.Dim(k)
			}
			if m.At(r, c) != d.Data()[l] {
				t.Fatalf("X_(0:%d) entry (%d,%d) wrong", n, r, c)
			}
		}
	}
}

func TestFoldInvertsUnfold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{r.Intn(4) + 1, r.Intn(4) + 1, r.Intn(4) + 1}
		d := Random(rng, dims...)
		n := int(n8) % 3
		back := Fold(d.Unfold(nil, 1, n), n, dims)
		return MaxAbsDiff(d, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFoldDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Fold(mat.NewDense(3, 3), 0, []int{2, 2})
}

func TestUnfoldIsACopy(t *testing.T) {
	d := New(2, 3, 2)
	u := d.Unfold(nil, 1, 1)
	u.Set(0, 0, 7)
	if d.At(0, 0, 0) != 0 {
		t.Error("Unfold must copy, not alias")
	}
}

package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowColMajorIndexing(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	rm := FromRowMajor(data, 2, 3)
	cm := FromColMajor(data, 2, 3)
	// Row-major: [1 2 3; 4 5 6]. Col-major: [1 3 5; 2 4 6].
	if rm.At(0, 2) != 3 || rm.At(1, 0) != 4 {
		t.Errorf("row-major indexing wrong: %v %v", rm.At(0, 2), rm.At(1, 0))
	}
	if cm.At(0, 2) != 5 || cm.At(1, 0) != 2 {
		t.Errorf("col-major indexing wrong: %v %v", cm.At(0, 2), cm.At(1, 0))
	}
	if !rm.IsRowMajor() || rm.IsColMajor() {
		t.Error("row-major flags wrong")
	}
	if !cm.IsColMajor() || cm.IsRowMajor() {
		t.Error("col-major flags wrong")
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomDense(4, 7, rng)
	tt := a.T().T()
	if !ApproxEqual(a, tt, 0) {
		t.Error("T().T() != identity")
	}
	at := a.T()
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSliceViewsShareStorage(t *testing.T) {
	a := NewDense(5, 5)
	s := a.Slice(1, 4, 2, 5)
	if s.R != 3 || s.C != 3 {
		t.Fatalf("slice dims %dx%d, want 3x3", s.R, s.C)
	}
	s.Set(0, 0, 42)
	if a.At(1, 2) != 42 {
		t.Error("slice does not alias parent storage")
	}
}

func TestSliceOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-bounds slice")
		}
	}()
	NewDense(3, 3).Slice(0, 4, 0, 3)
}

func TestRowColVectors(t *testing.T) {
	a := FromRowMajor([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r1 := a.Row(1)
	if r1.N != 3 || r1.At(0) != 4 || r1.At(2) != 6 {
		t.Errorf("row view wrong: %v %v", r1.At(0), r1.At(2))
	}
	c2 := a.Col(2)
	if c2.N != 2 || c2.At(0) != 3 || c2.At(1) != 6 {
		t.Errorf("col view wrong: %v %v", c2.At(0), c2.At(1))
	}
	c2.Set(1, 99)
	if a.At(1, 2) != 99 {
		t.Error("vector view does not alias storage")
	}
}

func TestContiguousRow(t *testing.T) {
	a := FromRowMajor([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	row := a.ContiguousRow(1)
	if len(row) != 3 || row[0] != 4 {
		t.Errorf("ContiguousRow wrong: %v", row)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for strided ContiguousRow")
		}
	}()
	a.T().ContiguousRow(0)
}

func TestCloneAndCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomDense(3, 4, rng)
	b := a.Clone()
	if !ApproxEqual(a, b, 0) {
		t.Error("clone differs")
	}
	b.Set(0, 0, -1)
	if a.At(0, 0) == -1 {
		t.Error("clone aliases original")
	}
	c := NewColMajor(3, 4)
	c.CopyFrom(a)
	if MaxAbsDiff(a, c) != 0 {
		t.Error("copy across layouts differs")
	}
}

func TestCopyDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDense(2, 2).CopyFrom(NewDense(3, 3))
}

func TestZeroFill(t *testing.T) {
	a := NewDense(3, 3)
	a.Fill(7)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != 7 {
				t.Fatal("fill failed")
			}
		}
	}
	a.Zero()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != 0 {
				t.Fatal("zero failed")
			}
		}
	}
}

// TestZeroFillByRunsKeepGuards pins Zero and Fill on every stride
// pattern they take a different loop for: row-major and column-major
// views with padding between their runs, views strided both ways, and
// Slice windows of each. The views sit inside a buffer of guard values
// (-0 among them): every element inside must be set (Zero to +0, as
// Set(i, j, 0) writes), and every element outside keep its bits.
func TestZeroFillByRunsKeepGuards(t *testing.T) {
	const off, size = 5, 256
	type layout struct {
		name   string
		r, c   int
		rs, cs int
		slice  [4]int // r0, r1, c0, c1 of a Slice; zero = whole view
	}
	layouts := []layout{
		{"row-major", 5, 7, 7, 1, [4]int{}},
		{"row-major padded", 5, 7, 9, 1, [4]int{}},
		{"column-major", 6, 4, 1, 6, [4]int{}},
		{"column-major padded", 6, 4, 1, 8, [4]int{}},
		{"strided", 4, 5, 11, 2, [4]int{}},
		{"strided transposed", 5, 4, 2, 11, [4]int{}},
		{"row-major slice", 6, 9, 9, 1, [4]int{1, 5, 2, 6}},
		{"column-major slice", 9, 6, 1, 9, [4]int{2, 7, 1, 4}},
		{"strided slice", 6, 7, 15, 2, [4]int{1, 4, 2, 7}},
		{"single column", 7, 1, 3, 1, [4]int{}},
		{"single row", 1, 7, 1, 3, [4]int{}},
		{"empty", 0, 5, 5, 1, [4]int{}},
	}
	rng := rand.New(rand.NewSource(8))
	for _, lay := range layouts {
		for _, tc := range []struct {
			op string
			x  float64
		}{{"Zero", 0}, {"Fill", 0}, {"Fill", math.Copysign(0, -1)}, {"Fill", 2.5}} {
			name := fmt.Sprintf("%s/%s(%v)", lay.name, tc.op, tc.x)
			buf := make([]float64, size)
			for i := range buf {
				buf[i] = rng.NormFloat64()
				if i%7 == 0 {
					buf[i] = math.Copysign(0, -1)
				}
			}
			guard := append([]float64(nil), buf...)
			v := View{Data: buf[off:], R: lay.r, C: lay.c, RS: lay.rs, CS: lay.cs}
			if sl := lay.slice; sl != [4]int{} {
				v = v.Slice(sl[0], sl[1], sl[2], sl[3])
			}
			inside := make(map[int]bool)
			base := size - len(v.Data)
			for i := 0; i < v.R; i++ {
				for j := 0; j < v.C; j++ {
					inside[base+i*v.RS+j*v.CS] = true
				}
			}
			if tc.op == "Zero" {
				v.Zero()
			} else {
				v.Fill(tc.x)
			}
			for i, got := range buf {
				w := guard[i]
				if inside[i] {
					w = tc.x
				}
				if math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("%s: buf[%d] (inside %v) = %v (%x), want %v (%x)",
						name, i, inside[i], got, math.Float64bits(got), w, math.Float64bits(w))
				}
			}
		}
	}
}

func TestMaxAbsDiffAndApproxEqual(t *testing.T) {
	a := FromRowMajor([]float64{1, 2, 3, 4}, 2, 2)
	b := FromRowMajor([]float64{1, 2, 3.5, 4}, 2, 2)
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Errorf("MaxAbsDiff = %v, want 0.5", d)
	}
	if ApproxEqual(a, b, 1e-3) {
		t.Error("ApproxEqual should fail at tight tol")
	}
	if !ApproxEqual(a, b, 0.2) {
		t.Error("ApproxEqual should pass: diff 0.5 <= 0.2*4")
	}
	if ApproxEqual(a, NewDense(3, 2), 1) {
		t.Error("dimension mismatch must not be equal")
	}
}

func TestVecContiguous(t *testing.T) {
	v := FromSlice([]float64{1, 2, 3})
	if got := v.Contiguous(); len(got) != 3 || got[1] != 2 {
		t.Errorf("Contiguous = %v", got)
	}
	strided := Vec{Data: []float64{1, 2, 3, 4}, N: 2, Inc: 2}
	if strided.At(1) != 3 {
		t.Error("strided vec indexing wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	strided.Contiguous()
}

// Property: transpose view indexing is consistent for random shapes.
func TestTransposePropertyQuick(t *testing.T) {
	f := func(r8, c8, i8, j8 uint8) bool {
		r := int(r8%8) + 1
		c := int(c8%8) + 1
		i := int(i8) % r
		j := int(j8) % c
		rng := rand.New(rand.NewSource(int64(r*100 + c)))
		a := RandomDense(r, c, rng)
		return a.At(i, j) == a.T().At(j, i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: slicing then indexing equals direct offset indexing.
func TestSlicePropertyQuick(t *testing.T) {
	f := func(seed int64, r0u, c0u uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomDense(9, 7, rng)
		r0 := int(r0u % 5)
		c0 := int(c0u % 4)
		s := a.Slice(r0, r0+4, c0, c0+3)
		for i := 0; i < s.R; i++ {
			for j := 0; j < s.C; j++ {
				if s.At(i, j) != a.At(r0+i, c0+j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

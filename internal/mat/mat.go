// Package mat provides dense matrix and vector views with arbitrary row and
// column strides. A single View type describes row-major matrices,
// column-major matrices, transposes, and submatrices without copying, which
// is exactly what the MTTKRP algorithms need: the paper's matricizations
// X_(0), X_(n) blocks and X_(0:n) are all strided windows onto one tensor
// buffer.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// View is a rectangular window onto a float64 buffer. Element (i, j) lives
// at Data[i*RS + j*CS]. RS/CS may describe row-major (RS=cols, CS=1),
// column-major (RS=1, CS=rows), or any other consistent stride pattern.
type View struct {
	Data []float64
	R, C int // dimensions
	RS   int // row stride
	CS   int // column stride
}

// FromRowMajor wraps data as an r×c row-major matrix view.
func FromRowMajor(data []float64, r, c int) View {
	return View{Data: data, R: r, C: c, RS: c, CS: 1}
}

// FromColMajor wraps data as an r×c column-major matrix view.
func FromColMajor(data []float64, r, c int) View {
	return View{Data: data, R: r, C: c, RS: 1, CS: r}
}

// NewDense allocates an r×c row-major matrix.
func NewDense(r, c int) View {
	return FromRowMajor(make([]float64, r*c), r, c)
}

// NewColMajor allocates an r×c column-major matrix.
func NewColMajor(r, c int) View {
	return FromColMajor(make([]float64, r*c), r, c)
}

// At returns element (i, j).
func (v View) At(i, j int) float64 { return v.Data[i*v.RS+j*v.CS] }

// Set assigns element (i, j).
func (v View) Set(i, j int, x float64) { v.Data[i*v.RS+j*v.CS] = x }

// Add accumulates x into element (i, j).
func (v View) Add(i, j int, x float64) { v.Data[i*v.RS+j*v.CS] += x }

// T returns the transposed view (no copy).
func (v View) T() View {
	return View{Data: v.Data, R: v.C, C: v.R, RS: v.CS, CS: v.RS}
}

// Slice returns the submatrix view of rows [r0, r1) and columns [c0, c1).
func (v View) Slice(r0, r1, c0, c1 int) View {
	if r0 < 0 || r1 < r0 || r1 > v.R || c0 < 0 || c1 < c0 || c1 > v.C {
		panic(fmt.Sprintf("mat: slice [%d:%d, %d:%d] out of bounds of %dx%d", r0, r1, c0, c1, v.R, v.C))
	}
	off := r0*v.RS + c0*v.CS
	return View{Data: v.Data[off:], R: r1 - r0, C: c1 - c0, RS: v.RS, CS: v.CS}
}

// Row returns row i as a vector view.
func (v View) Row(i int) Vec {
	return Vec{Data: v.Data[i*v.RS:], N: v.C, Inc: v.CS}
}

// Col returns column j as a vector view.
func (v View) Col(j int) Vec {
	return Vec{Data: v.Data[j*v.CS:], N: v.R, Inc: v.RS}
}

// IsRowMajor reports whether the view is contiguous row-major.
func (v View) IsRowMajor() bool { return v.CS == 1 && v.RS == v.C }

// IsColMajor reports whether the view is contiguous column-major.
func (v View) IsColMajor() bool { return v.RS == 1 && v.CS == v.R }

// ContiguousRow returns row i as a plain slice when the view is row-major
// with unit column stride; it panics otherwise. Hot loops in the KRP and
// MTTKRP kernels use it to avoid stride arithmetic.
func (v View) ContiguousRow(i int) []float64 {
	if v.CS != 1 {
		panic("mat: ContiguousRow on non-unit column stride")
	}
	off := i * v.RS
	return v.Data[off : off+v.C]
}

// Zero clears every element of the view to +0, as Set(i, j, 0) does.
func (v View) Zero() { v.Fill(0) }

// Fill sets every element to x. A view with unit column stride is set one
// row at a time, one with unit row stride (a column-major GEMM output)
// one column at a time, each as one run; only a view strided both ways
// is set element by element.
func (v View) Fill(x float64) {
	switch {
	case v.R == 0 || v.C == 0:
	case v.CS == 1:
		for i := 0; i < v.R; i++ {
			fillRun(v.Data[i*v.RS:i*v.RS+v.C], x)
		}
	case v.RS == 1:
		for j := 0; j < v.C; j++ {
			fillRun(v.Data[j*v.CS:j*v.CS+v.R], x)
		}
	default:
		for i := 0; i < v.R; i++ {
			for j := 0; j < v.C; j++ {
				v.Set(i, j, x)
			}
		}
	}
}

// fillRun sets every element of run to x; +0 takes clear.
func fillRun(run []float64, x float64) {
	if math.Float64bits(x) == 0 {
		clear(run)
		return
	}
	for i := range run {
		run[i] = x
	}
}

// CopyFrom copies src into v elementwise. Dimensions must match.
func (v View) CopyFrom(src View) {
	if v.R != src.R || v.C != src.C {
		panic(fmt.Sprintf("mat: copy dimension mismatch %dx%d <- %dx%d", v.R, v.C, src.R, src.C))
	}
	for i := 0; i < v.R; i++ {
		for j := 0; j < v.C; j++ {
			v.Set(i, j, src.At(i, j))
		}
	}
}

// Clone returns a freshly allocated row-major copy of v.
func (v View) Clone() View {
	out := NewDense(v.R, v.C)
	out.CopyFrom(v)
	return out
}

// Randomize fills v with uniform values in [0, 1) from rng.
func (v View) Randomize(rng *rand.Rand) {
	for i := 0; i < v.R; i++ {
		for j := 0; j < v.C; j++ {
			v.Set(i, j, rng.Float64())
		}
	}
}

// RandomDense returns an r×c row-major matrix with uniform [0,1) entries.
func RandomDense(r, c int, rng *rand.Rand) View {
	m := NewDense(r, c)
	m.Randomize(rng)
	return m
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, which must have equal dimensions.
func MaxAbsDiff(a, b View) float64 {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("mat: diff dimension mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C))
	}
	max := 0.0
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			d := math.Abs(a.At(i, j) - b.At(i, j))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// ApproxEqual reports whether a and b agree elementwise within tol,
// relative to the largest magnitude present (mixed absolute/relative test).
func ApproxEqual(a, b View, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	scale := 1.0
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			if m := math.Abs(a.At(i, j)); m > scale {
				scale = m
			}
		}
	}
	return MaxAbsDiff(a, b) <= tol*scale
}

// String renders small matrices for debugging and test failure messages.
func (v View) String() string {
	s := ""
	for i := 0; i < v.R; i++ {
		for j := 0; j < v.C; j++ {
			s += fmt.Sprintf("% 10.4g ", v.At(i, j))
		}
		s += "\n"
	}
	return s
}

// Vec is a strided vector view: element i lives at Data[i*Inc].
type Vec struct {
	Data []float64
	N    int
	Inc  int
}

// FromSlice wraps a slice as a unit-stride vector.
func FromSlice(x []float64) Vec { return Vec{Data: x, N: len(x), Inc: 1} }

// At returns element i.
func (v Vec) At(i int) float64 { return v.Data[i*v.Inc] }

// Set assigns element i.
func (v Vec) Set(i int, x float64) { v.Data[i*v.Inc] = x }

// Contiguous returns the underlying slice when Inc == 1, panicking
// otherwise.
func (v Vec) Contiguous() []float64 {
	if v.Inc != 1 {
		panic("mat: Contiguous on strided vector")
	}
	return v.Data[:v.N]
}

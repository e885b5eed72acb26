// Package tensor implements dense N-way tensors stored in the natural
// linearization the paper assumes: entry (i_0, …, i_{N-1}) lives at linear
// index ℓ = Σ_n i_n · I^L_n, where I^L_n is the product of the dimensions
// to the left of mode n (mode 0 varies fastest — the generalization of
// column-major order). All of the paper's matricization structure follows
// from this layout and is exposed here as stride views, never copies:
//
//   - X_(0)      is column-major               (Matricize(0))
//   - X_(N-1)    is row-major                  (Matricize(N-1))
//   - X_(n)      is I^R_n row-major blocks     (ModeBlock)
//   - X_(0:n)    is column-major               (MatricizeRowModes)
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Dense is an N-way dense tensor in natural linearization.
type Dense struct {
	dims    []int
	strides []int // strides[n] = I^L_n
	data    []float64

	// mapped marks data as a read-only file mapping (set by OpenDense);
	// mutating methods must not be called on a mapped tensor.
	mapped bool
}

// Mapped reports whether the data slab is a read-only mapped file region
// (an OpenDense tensor). Mapped tensors must not be mutated. They compute
// exactly as heap tensors do: the kernels read the mapping in place, and
// the serving cost model prices them by their dense shape.
func (d *Dense) Mapped() bool { return d.mapped }

// New allocates a zero tensor with the given dimensions. Every dimension
// must be positive.
func New(dims ...int) *Dense {
	d := &Dense{dims: append([]int(nil), dims...)}
	d.strides = make([]int, len(dims))
	size := 1
	for n, dim := range dims {
		if dim <= 0 {
			panic(fmt.Sprintf("tensor: dimension %d is %d, must be positive", n, dim))
		}
		d.strides[n] = size
		size *= dim
	}
	d.data = make([]float64, size)
	return d
}

// FromData wraps an existing buffer (not copied) with tensor dimensions.
// len(data) must equal the product of dims.
func FromData(data []float64, dims ...int) *Dense {
	d := &Dense{dims: append([]int(nil), dims...), data: data}
	d.strides = make([]int, len(dims))
	size := 1
	for n, dim := range dims {
		if dim <= 0 {
			panic(fmt.Sprintf("tensor: dimension %d is %d, must be positive", n, dim))
		}
		d.strides[n] = size
		size *= dim
	}
	if len(data) != size {
		panic(fmt.Sprintf("tensor: data length %d does not match dims (need %d)", len(data), size))
	}
	return d
}

// Order returns the number of modes N.
func (d *Dense) Order() int { return len(d.dims) }

// Dim returns the size of mode n.
func (d *Dense) Dim(n int) int { return d.dims[n] }

// Dims returns a copy of the dimension slice.
func (d *Dense) Dims() []int { return append([]int(nil), d.dims...) }

// Size returns the total number of entries I = ∏ I_n.
func (d *Dense) Size() int { return len(d.data) }

// Data exposes the underlying buffer in natural linearization.
func (d *Dense) Data() []float64 { return d.data }

// Stride returns I^L_n, the linearization stride of mode n.
func (d *Dense) Stride(n int) int { return d.strides[n] }

// SizeLeft returns I^L_n = ∏_{k<n} I_k.
func (d *Dense) SizeLeft(n int) int { return d.strides[n] }

// SizeRight returns I^R_n = ∏_{k>n} I_k.
func (d *Dense) SizeRight(n int) int {
	return len(d.data) / (d.strides[n] * d.dims[n])
}

// SizeOther returns I_{≠n} = ∏_{k≠n} I_k, the column count of X_(n).
func (d *Dense) SizeOther(n int) int { return len(d.data) / d.dims[n] }

// LinearIndex converts a multi-index to the natural linear index.
func (d *Dense) LinearIndex(idx []int) int {
	if len(idx) != len(d.dims) {
		panic(fmt.Sprintf("tensor: index has %d coordinates, want %d", len(idx), len(d.dims)))
	}
	l := 0
	for n, i := range idx {
		if i < 0 || i >= d.dims[n] {
			panic(fmt.Sprintf("tensor: index %d out of range for mode %d (dim %d)", i, n, d.dims[n]))
		}
		l += i * d.strides[n]
	}
	return l
}

// MultiIndex writes the multi-index of linear index l into idx, which must
// have length N, and returns it.
func (d *Dense) MultiIndex(l int, idx []int) []int {
	if l < 0 || l >= len(d.data) {
		panic(fmt.Sprintf("tensor: linear index %d out of range", l))
	}
	for n, dim := range d.dims {
		idx[n] = l % dim
		l /= dim
	}
	return idx
}

// At returns the entry at the given multi-index.
func (d *Dense) At(idx ...int) float64 { return d.data[d.LinearIndex(idx)] }

// Set assigns the entry at the given multi-index.
func (d *Dense) Set(v float64, idx ...int) { d.data[d.LinearIndex(idx)] = v }

// Fill sets every entry to v.
func (d *Dense) Fill(v float64) {
	for i := range d.data {
		d.data[i] = v
	}
}

// Randomize fills the tensor with uniform [0,1) entries from rng.
func (d *Dense) Randomize(rng *rand.Rand) {
	for i := range d.data {
		d.data[i] = rng.Float64()
	}
}

// Random returns a new tensor with uniform [0,1) entries.
func Random(rng *rand.Rand, dims ...int) *Dense {
	d := New(dims...)
	d.Randomize(rng)
	return d
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := New(d.dims...)
	copy(c.data, d.data)
	return c
}

// Norm returns the Frobenius norm ‖X‖, computed on p with t workers (a
// nil p selects the default pool). Its bits do not depend on p or t.
func (d *Dense) Norm(p parallel.Executor, t int) float64 {
	return math.Sqrt(d.NormSquared(p, t))
}

// NormSquared returns ‖X‖² = Σ x², computed on p with t workers (a nil p
// selects the default pool). Its bits do not depend on p or t.
func (d *Dense) NormSquared(p parallel.Executor, t int) float64 {
	return sumSquares(p, t, d.data)
}

// normBlock is the length of the blocks a squared norm sums one by one.
// The partition depends on the data length alone, so a norm has the same
// bits on every executor and at every width.
const normBlock = 1 << 15

// sumSquares returns Σ v² over vals, the one squared-norm sum of both
// layouts. Each block of normBlock values is summed sequentially, the
// workers of p share out the blocks, and the block sums are added in block
// order. Data of one block or less is one sequential sum on the caller.
func sumSquares(p parallel.Executor, t int, vals []float64) float64 {
	nblk := (len(vals) + normBlock - 1) / normBlock
	if nblk <= 1 {
		return sumSquaresSeq(vals)
	}
	parts := make([]float64, nblk)
	parallel.OrDefault(p).For(t, nblk, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			parts[b] = sumSquaresSeq(vals[b*normBlock : min((b+1)*normBlock, len(vals))])
		}
	})
	total := 0.0
	for _, s := range parts {
		total += s
	}
	return total
}

func sumSquaresSeq(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v * v
	}
	return s
}

// AddScaled computes X += alpha·Y elementwise.
func (d *Dense) AddScaled(alpha float64, y *Dense) {
	if !sameDims(d.dims, y.dims) {
		panic("tensor: addscaled dimension mismatch")
	}
	for i := range d.data {
		d.data[i] += alpha * y.data[i]
	}
}

// MaxAbsDiff returns the largest absolute entrywise difference.
func MaxAbsDiff(x, y *Dense) float64 {
	if !sameDims(x.dims, y.dims) {
		panic("tensor: diff dimension mismatch")
	}
	max := 0.0
	for i := range x.data {
		d := math.Abs(x.data[i] - y.data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// ApproxEqual reports entrywise agreement within tol relative to the
// largest magnitude present.
func ApproxEqual(x, y *Dense, tol float64) bool {
	if !sameDims(x.dims, y.dims) {
		return false
	}
	scale := 1.0
	for i := range x.data {
		if m := math.Abs(x.data[i]); m > scale {
			scale = m
		}
	}
	return MaxAbsDiff(x, y) <= tol*scale
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

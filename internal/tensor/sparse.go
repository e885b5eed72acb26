package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/parallel"
)

// Sparse is an N-way sparse tensor in coordinate (COO) format: parallel
// per-mode index slices plus a value slice, sorted lexicographically (mode
// 0 most significant) and deduplicated at construction. The sorted order
// is a structural invariant every consumer may rely on — the wire codec
// streams it as-is, and equality of two Sparse tensors is equality of
// their slices.
//
// A compressed fiber layout (FiberLayout, CSF-like) is built lazily per
// mode on first use and cached on the tensor, the way kernels cache their
// scratch in pool workspaces: repeated MTTKRPs over the same tensor and
// mode pay the grouping pass once.
type Sparse struct {
	dims []int
	idx  [][]int32 // idx[n][p] is the mode-n coordinate of entry p
	vals []float64

	mu     sync.Mutex
	fibers []*FiberLayout // lazily built, one per mode
}

// NewSparse builds a sparse tensor from per-mode coordinate slices and
// values: entry p is (idx[0][p], …, idx[N-1][p]) = vals[p]. The inputs are
// copied; coordinates are sorted lexicographically and duplicate
// coordinates are merged by summation. It panics on malformed input — use
// SparseFromCOO for the error-returning ingest path.
func NewSparse(dims []int, idx [][]int32, vals []float64) *Sparse {
	ci := make([][]int32, len(idx))
	for n := range idx {
		ci[n] = append([]int32(nil), idx[n]...)
	}
	s, err := SparseFromCOO(dims, ci, append([]float64(nil), vals...))
	if err != nil {
		panic("tensor: " + err.Error())
	}
	return s
}

// SparseFromCOO builds a sparse tensor taking ownership of the given
// slices (they are reordered in place; the caller must not use them
// afterwards). Coordinates are validated against dims, sorted
// lexicographically and deduplicated by summation; already-sorted input
// (the wire and file ingest paths) is detected in one pass and skips the
// sort. Malformed input returns an error rather than panicking, because
// this is the path untrusted bytes arrive through.
func SparseFromCOO(dims []int, idx [][]int32, vals []float64) (*Sparse, error) {
	if len(dims) < 1 {
		return nil, fmt.Errorf("sparse tensor needs at least one mode")
	}
	for n, d := range dims {
		if d <= 0 || d > math.MaxInt32 {
			return nil, fmt.Errorf("sparse dimension %d is %d, want 1..%d", n, d, math.MaxInt32)
		}
	}
	if len(idx) != len(dims) {
		return nil, fmt.Errorf("sparse has %d index slices for an order-%d tensor", len(idx), len(dims))
	}
	for n := range idx {
		if len(idx[n]) != len(vals) {
			return nil, fmt.Errorf("sparse mode-%d index slice holds %d entries, want %d", n, len(idx[n]), len(vals))
		}
		for p, i := range idx[n] {
			if i < 0 || int(i) >= dims[n] {
				return nil, fmt.Errorf("sparse entry %d: coordinate %d out of range for mode %d (dim %d)", p, i, n, dims[n])
			}
		}
	}
	s := &Sparse{dims: append([]int(nil), dims...), idx: idx, vals: vals}
	s.sortDedup()
	s.fibers = make([]*FiberLayout, len(dims))
	return s, nil
}

// compare orders entries p and q lexicographically, mode 0 most
// significant.
func (s *Sparse) compare(p, q int) int {
	for n := range s.idx {
		if d := s.idx[n][p] - s.idx[n][q]; d != 0 {
			return int(d)
		}
	}
	return 0
}

// sortDedup establishes the sorted-unique invariant. Sorted duplicate-free
// input (the common ingest case: the wire codec and the file loader both
// stream tensors that were already canonical) is detected in one pass and
// returned untouched.
func (s *Sparse) sortDedup() {
	nnz := len(s.vals)
	sorted := true
	for p := 0; p+1 < nnz; p++ {
		if s.compare(p, p+1) >= 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	perm := make([]int, nnz)
	for p := range perm {
		perm[p] = p
	}
	sort.Slice(perm, func(a, b int) bool { return s.compare(perm[a], perm[b]) < 0 })
	nidx := make([][]int32, len(s.idx))
	for n := range nidx {
		nidx[n] = make([]int32, nnz)
	}
	nvals := make([]float64, nnz)
	out := 0
	for _, p := range perm {
		if out > 0 {
			same := true
			for n := range s.idx {
				if nidx[n][out-1] != s.idx[n][p] {
					same = false
					break
				}
			}
			if same {
				nvals[out-1] += s.vals[p] // duplicate coordinate: merge
				continue
			}
		}
		for n := range s.idx {
			nidx[n][out] = s.idx[n][p]
		}
		nvals[out] = s.vals[p]
		out++
	}
	for n := range nidx {
		s.idx[n] = nidx[n][:out]
	}
	s.vals = nvals[:out]
}

// Order returns the number of modes N.
func (s *Sparse) Order() int { return len(s.dims) }

// Dim returns the size of mode n.
func (s *Sparse) Dim(n int) int { return s.dims[n] }

// Dims returns a copy of the dimension slice.
func (s *Sparse) Dims() []int { return append([]int(nil), s.dims...) }

// NNZ returns the stored coordinate count.
func (s *Sparse) NNZ() int64 { return int64(len(s.vals)) }

// Layout reports LayoutCOO.
func (s *Sparse) Layout() Layout { return LayoutCOO }

// Values exposes the value slice in sorted coordinate order. Read-only by
// contract: mutating entries would desynchronize the cached fiber layouts.
func (s *Sparse) Values() []float64 { return s.vals }

// Index exposes the mode-n coordinate slice, parallel to Values.
// Read-only by contract.
func (s *Sparse) Index(n int) []int32 { return s.idx[n] }

// Densify materializes the tensor as a Dense in natural linearization.
func (s *Sparse) Densify() *Dense {
	d := New(s.dims...)
	for p, v := range s.vals {
		l := 0
		for n := range s.dims {
			l += int(s.idx[n][p]) * d.strides[n]
		}
		d.data[l] += v
	}
	return d
}

// Norm returns the Frobenius norm ‖X‖, computed on p with t workers (a
// nil p selects the default pool). Its bits do not depend on p or t.
func (s *Sparse) Norm(p parallel.Executor, t int) float64 {
	return math.Sqrt(s.NormSquared(p, t))
}

// NormSquared returns ‖X‖² = Σ x² over the stored entries, computed on p
// with t workers (a nil p selects the default pool). Its bits do not
// depend on p or t.
func (s *Sparse) NormSquared(p parallel.Executor, t int) float64 {
	return sumSquares(p, t, s.vals)
}

// RandomSparse returns a sparse tensor with ⌈density · Π dims⌉ entries (at
// least 1) at distinct uniform coordinates, with uniform [0, 1) values.
func RandomSparse(rng *rand.Rand, density float64, dims ...int) *Sparse {
	size := 1
	for n, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: dimension %d is %d, must be positive", n, d))
		}
		size *= d
	}
	nnz := int(density*float64(size) + 0.5)
	if nnz < 1 {
		nnz = 1
	}
	if nnz > size {
		nnz = size
	}
	seen := make(map[int]struct{}, nnz)
	lin := make([]int, 0, nnz)
	for len(lin) < nnz {
		l := rng.Intn(size)
		if _, dup := seen[l]; dup {
			continue
		}
		seen[l] = struct{}{}
		lin = append(lin, l)
	}
	idx := make([][]int32, len(dims))
	for n := range idx {
		idx[n] = make([]int32, nnz)
	}
	vals := make([]float64, nnz)
	for p, l := range lin {
		for n, d := range dims {
			idx[n][p] = int32(l % d)
			l /= d
		}
		vals[p] = rng.Float64()
	}
	s, err := SparseFromCOO(dims, idx, vals)
	if err != nil {
		panic("tensor: " + err.Error())
	}
	return s
}

// FiberLayout is the compressed fiber layout of one (tensor, mode) pair —
// the CSF-style grouping the sparse MTTKRP kernel consumes. Entries are
// regrouped by their mode-n coordinate into slices: slice s covers entries
// [SlicePtr[s], SlicePtr[s+1]) of the reordered Idx/Vals arrays and
// contributes only to output row SliceIdx[s]; empty rows carry no slice.
// Within a slice, entries keep the tensor's lexicographic order, so factor
// rows are walked with good locality. The fields are read-only by
// contract — a layout is shared by every kernel invocation over its
// tensor.
type FiberLayout struct {
	// SlicePtr has len(SliceIdx)+1 entries; slice s spans
	// [SlicePtr[s], SlicePtr[s+1]).
	SlicePtr []int32
	// SliceIdx is the mode-n output row of each slice, strictly
	// increasing.
	SliceIdx []int32
	// Idx holds the reordered coordinate slices; Idx[n] (the grouping
	// mode) is nil — the coordinate is SliceIdx of the covering slice.
	Idx [][]int32
	// Vals holds the reordered values.
	Vals []float64
}

// NNZ returns the entry count of the layout.
func (f *FiberLayout) NNZ() int { return len(f.Vals) }

// Slices returns the number of non-empty mode rows.
func (f *FiberLayout) Slices() int { return len(f.SliceIdx) }

// Fibers returns the compressed fiber layout for mode n, building it on
// first use and caching it on the tensor — the once-per-(tensor, mode)
// cost the serving path amortizes exactly like kernel workspaces. Safe for
// concurrent use.
func (s *Sparse) Fibers(n int) *FiberLayout {
	if n < 0 || n >= len(s.dims) {
		panic(fmt.Sprintf("tensor: fiber mode %d out of range [0,%d)", n, len(s.dims)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fibers[n] == nil {
		s.fibers[n] = s.buildFibers(n)
	}
	return s.fibers[n]
}

// buildFibers groups the entries by mode-n coordinate with a stable
// counting pass (O(nnz + I_n)), preserving lexicographic order within each
// slice.
func (s *Sparse) buildFibers(n int) *FiberLayout {
	nnz := len(s.vals)
	dimN := s.dims[n]
	start := make([]int32, dimN+1)
	for _, i := range s.idx[n] {
		start[i+1]++
	}
	for i := 0; i < dimN; i++ {
		start[i+1] += start[i]
	}
	fl := &FiberLayout{
		Idx:  make([][]int32, len(s.dims)),
		Vals: make([]float64, nnz),
	}
	for k := range s.dims {
		if k != n {
			fl.Idx[k] = make([]int32, nnz)
		}
	}
	pos := append([]int32(nil), start[:dimN]...)
	for p := 0; p < nnz; p++ {
		i := s.idx[n][p]
		q := pos[i]
		pos[i]++
		fl.Vals[q] = s.vals[p]
		for k := range s.dims {
			if k != n {
				fl.Idx[k][q] = s.idx[k][p]
			}
		}
	}
	for i := 0; i < dimN; i++ {
		if start[i+1] > start[i] {
			fl.SliceIdx = append(fl.SliceIdx, int32(i))
			fl.SlicePtr = append(fl.SlicePtr, start[i])
		}
	}
	fl.SlicePtr = append(fl.SlicePtr, int32(nnz))
	return fl
}

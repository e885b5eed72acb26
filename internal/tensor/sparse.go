package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
)

// Sparse is an N-way sparse tensor in coordinate (COO) format: parallel
// per-mode index slices plus a value slice, sorted lexicographically (mode
// 0 most significant) and deduplicated at construction. The sorted order
// is a structural invariant every consumer may rely on — the wire codec
// streams it as-is, the sparse MTTKRP walks it in place for every mode,
// and equality of two Sparse tensors is equality of their slices.
type Sparse struct {
	dims []int
	idx  [][]int32 // idx[n][p] is the mode-n coordinate of entry p
	vals []float64
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
	s := &Sparse{dims: append([]int(nil), dims...), idx: idx, vals: vals}
	// The common ingest case, in-range sorted input whose linear keys fit,
	// is checked by sortedByKey alone, reading every coordinate once.
	// Anything else takes the mode-by-mode checks, so an error names the
	// same slice or entry whichever way the input failed.
	fits := s.keyFits()
	if fits && s.sortedByKey() {
		return s, nil
	}
	if err := s.checkCoords(); err != nil {
		return nil, err
	}
	if fits || !s.sortedPairwise() {
		s.sortDedup()
	}
	return s, nil
}

// checkCoords validates the index slices mode by mode: each must hold
// one coordinate per value, and every coordinate must be in range.
func (s *Sparse) checkCoords() error {
	for n, ix := range s.idx {
		if len(ix) != len(s.vals) {
			return fmt.Errorf("sparse mode-%d index slice holds %d entries, want %d", n, len(ix), len(s.vals))
		}
		// One unsigned compare per coordinate: a negative int32 wraps
		// above every dimension (dims are ≤ MaxInt32).
		d := uint32(s.dims[n])
		for p, i := range ix {
			if uint32(i) >= d {
				return fmt.Errorf("sparse entry %d: coordinate %d out of range for mode %d (dim %d)", p, i, n, s.dims[n])
			}
		}
	}
	return nil
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

// sortedPairwise reports whether the entries are strictly increasing
// under compare, one pair of neighbours at a time.
func (s *Sparse) sortedPairwise() bool {
	for p := 0; p+1 < len(s.vals); p++ {
		if s.compare(p, p+1) >= 0 {
			return false
		}
	}
	return true
}

// keyFits reports whether every in-range coordinate has a linear key
// Σ_n i_n · Π_{k>n} I_k below 2^63, that is whether Π dims < 2^63.
func (s *Sparse) keyFits() bool {
	size := uint64(1)
	for _, d := range s.dims {
		if size > math.MaxInt64/uint64(d) {
			return false
		}
		size *= uint64(d)
	}
	return true
}

// sortedByKey reports whether every coordinate is in range and the
// entries' linear keys (mode 0 most significant, so key order is
// lexicographic order) strictly increase: one pass that reads every
// coordinate once. Keys are built a block of entries at a time, one
// mode's coordinates after another, so each inner loop streams one index
// slice and range-checks it with one unsigned compare per coordinate (a
// negative int32 wraps above every dimension). It returns false at the
// first out-of-range coordinate, and when an index slice does not hold
// one coordinate per value. It requires keyFits.
func (s *Sparse) sortedByKey() bool {
	var keys [256]int64
	prev := int64(-1)
	nnz := len(s.vals)
	for _, ix := range s.idx {
		if len(ix) != nnz {
			return false
		}
	}
	for lo := 0; lo < nnz; lo += len(keys) {
		blk := keys[:min(len(keys), nnz-lo)]
		d0 := uint32(s.dims[0])
		for q, i := range s.idx[0][lo : lo+len(blk)] {
			if uint32(i) >= d0 {
				return false
			}
			blk[q] = int64(i)
		}
		for n := 1; n < len(s.idx); n++ {
			d := uint32(s.dims[n])
			ix := s.idx[n][lo : lo+len(blk)]
			for q, i := range ix {
				if uint32(i) >= d {
					return false
				}
				blk[q] = blk[q]*int64(d) + int64(i)
			}
		}
		for _, k := range blk {
			if k <= prev {
				return false
			}
			prev = k
		}
	}
	return true
}

// sortDedup establishes the sorted-unique invariant on input that is not
// already strictly sorted: it sorts the entries and merges duplicate
// coordinates by summation. Sorted duplicate-free input (the common ingest
// case: the wire codec and the file loader both stream tensors that were
// already canonical) never gets here.
func (s *Sparse) sortDedup() {
	nnz := len(s.vals)
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
// contract.
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

package tensor

// Layout identifies the storage layout behind an Interface value, so
// shape-generic entry points (root API, serving scheduler, cost model) can
// dispatch without a type switch in every caller.
type Layout int

const (
	// LayoutDense is the natural (generalized column-major) dense
	// linearization of package tensor's Dense type.
	LayoutDense Layout = iota
	// LayoutCOO is the sorted, deduplicated coordinate format of the
	// Sparse type.
	LayoutCOO
)

// String returns the layout name used in stats and benchmark output.
func (l Layout) String() string {
	switch l {
	case LayoutDense:
		return "dense"
	case LayoutCOO:
		return "coo"
	}
	return "unknown"
}

// Interface is the shape-level view shared by every tensor representation:
// enough for validation, admission pricing and dispatch, deliberately not
// enough to compute with — kernels type-switch to the concrete layout they
// implement. Both *Dense and *Sparse implement it.
type Interface interface {
	// Order returns the number of modes N.
	Order() int
	// Dim returns the size of mode n.
	Dim(n int) int
	// Dims returns a copy of the dimension slice.
	Dims() []int
	// NNZ returns the stored-entry count: the full size for a dense
	// tensor, the coordinate count for a sparse one. Cost models key
	// per-request work on NNZ · rank, which prices both layouts honestly.
	NNZ() int64
	// Layout identifies the storage layout for dispatch.
	Layout() Layout
}

var (
	_ Interface = (*Dense)(nil)
	_ Interface = (*Sparse)(nil)
)

// Unwrap returns the *Dense a *Map embeds, and x itself otherwise, so a
// type switch over the concrete layouts sees a mapped tensor as dense.
func Unwrap(x Interface) Interface {
	if m, ok := x.(*Map); ok {
		return m.Dense
	}
	return x
}

// NNZ returns the stored-entry count of a dense tensor: every entry,
// including explicit zeros (the dense layout stores them all).
func (d *Dense) NNZ() int64 { return int64(len(d.data)) }

// Layout reports LayoutDense.
func (d *Dense) Layout() Layout { return LayoutDense }

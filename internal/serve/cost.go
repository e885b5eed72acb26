package serve

import (
	"repro/internal/core"
	"repro/internal/tensor"
)

// CostModel estimates the admission cost of a request from its problem
// shape — the scalar the scheduler uses to weight worker budgets by cost
// share and to age the admission queue. The model follows the paper's
// performance structure: MTTKRP work is Θ(|X|·C) flops per mode over a
// working set of the tensor plus the factor matrices, so
//
//	flops ≈ 2 · Π dims · rank        (per mode)
//	bytes ≈ 8 · (Π dims + Σ I_k · rank + I_n · rank)
//
// and the scalar cost is flopWeight·flops + byteWeight·bytes. Small dense
// problems are bandwidth-bound, which is why bytes carry an independent
// weight instead of folding into a pure flop count.
type CostModel struct{}

// flopWeight and byteWeight convert the flop and byte estimates into one
// admission scalar.
const (
	flopWeight = 1
	byteWeight = 4
)

// combine folds flop and byte estimates into the admission scalar.
func (CostModel) combine(flops, bytes float64) float64 {
	return flopWeight*flops + byteWeight*bytes
}

// MTTKRP estimates the cost of one MTTKRP over a dims-shaped tensor with
// rank factor columns.
func (m CostModel) MTTKRP(dims []int, rank int) float64 {
	entries, rows := 1.0, 0.0
	for _, d := range dims {
		entries *= float64(d)
		rows += float64(d)
	}
	r := float64(rank)
	// The destination matrix counts like one more factor (I_n·rank ≤
	// rows·rank), folded into the 2× on the factor term.
	return m.combine(2*entries*r, 8*(entries+2*rows*r))
}

// SparseMTTKRP estimates the cost of one sparse MTTKRP with nnz stored
// entries over a dims-shaped tensor with rank factor columns. Work is
// keyed on nnz · rank, not Π dims · rank — a 0.1%-dense tensor is ~1000×
// cheaper than its dense shape suggests, and pricing it by shape would
// let sparse requests hoard worker budget and make ProjectedWait lie on
// mixed traffic:
//
//	flops ≈ 2 · nnz · rank · (order − 1)   (one hadamard chain + axpy per entry)
//	bytes ≈ 12 · nnz + 8 · (nnz · rank + 2 · Σ I_k · rank)
//
// (12 bytes per entry: one int32 coordinate per non-target mode ≈ 4·(N−1)
// folded to the order-3 common case, plus the 8-byte value; the factor
// and output terms mirror the dense model.)
func (m CostModel) SparseMTTKRP(nnz int64, dims []int, rank int) float64 {
	rows := 0.0
	for _, d := range dims {
		rows += float64(d)
	}
	r := float64(rank)
	nz := float64(nnz)
	order := float64(len(dims))
	return m.combine(2*nz*r*(order-1), 12*nz+8*(nz*r+2*rows*r))
}

// MTTKRPMapped estimates the cost of one MTTKRP over a file-backed
// (mmap'd) dense tensor streamed through row tiles. The flop term is the
// dense model's — every element is still touched once per mode — but the
// byte term prices the resident working set (one tile plus the factor and
// output matrices) instead of the full file extent: a tensor far larger
// than RAM does not hoard worker budget the way an equally-shaped
// heap-resident request would, because its cache/memory pressure is
// bounded by the tile budget. residentBytes ≤ 0 (or larger than the
// tensor itself) falls back to the full dense estimate.
func (m CostModel) MTTKRPMapped(dims []int, rank int, residentBytes int64) float64 {
	entries, rows := 1.0, 0.0
	for _, d := range dims {
		entries *= float64(d)
		rows += float64(d)
	}
	r := float64(rank)
	resident := float64(residentBytes)
	if resident <= 0 || resident > 8*entries {
		resident = 8 * entries
	}
	return m.combine(2*entries*r, resident+8*2*rows*r)
}

// costTensor is the tensor surface the model dispatches on.
type costTensor interface {
	Dims() []int
	NNZ() int64
	Layout() tensor.Layout
}

// MTTKRPFor estimates one MTTKRP request's cost by the tensor's layout:
// the dense shape model for heap-resident dense tensors, the nnz-keyed
// model for sparse ones, and the resident-byte model for mapped dense
// tensors (which the scheduler streams through tiles of at most
// core.DefaultTileBytes). This is the dispatch point SubmitMTTKRP prices
// through.
func (m CostModel) MTTKRPFor(x costTensor, rank int) float64 {
	if x.Layout() == tensor.LayoutCOO {
		return m.SparseMTTKRP(x.NNZ(), x.Dims(), rank)
	}
	if d, ok := x.(interface{ Mapped() bool }); ok && d.Mapped() {
		return m.MTTKRPMapped(x.Dims(), rank, core.DefaultTileBytes)
	}
	return m.MTTKRP(x.Dims(), rank)
}

// CP estimates a CP-ALS run: sweeps sweeps of one MTTKRP per mode.
// sweeps <= 0 selects the cpd default sweep budget (50).
func (m CostModel) CP(dims []int, rank, sweeps int) float64 {
	if sweeps <= 0 {
		sweeps = 50 // cpd.Config.withDefaults MaxIters
	}
	return float64(sweeps) * float64(len(dims)) * m.MTTKRP(dims, rank)
}

// costOf resolves a request's admission cost: an explicit positive hint
// wins, otherwise the model estimate; anything non-positive (the test
// hooks) costs one unit so equal-cost requests split the pool evenly.
func costOf(hint, estimate float64) float64 {
	if hint > 0 {
		return hint
	}
	if estimate > 0 {
		return estimate
	}
	return 1
}

// weightOf resolves a request's aging weight (0 selects 1).
func weightOf(w float64) float64 {
	if w > 0 {
		return w
	}
	return 1
}

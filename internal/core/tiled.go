package core

import (
	"repro/internal/mat"
	"repro/internal/tensor"
)

// Tiled kernel variants: the mode-n computation is streamed through
// row-block tiles of the mode-n matricization. Each tile — the subtensor
// with mode-n indices [r0, r1) — is gathered into a bounded workspace
// buffer (or aliased in place when the tile is contiguous, i.e. n = N-1)
// and run through the untiled kernel against the row slice of the output.
// The resident working set is one tile plus the kernel's own scratch, so a
// tensor far larger than RAM streams through an mmap'd slab; madvise
// kicks readahead for each tile before it is touched.
//
// Output rows of distinct tiles are disjoint, and within a tile row the
// kernels run the same worker partition and accumulation order as the
// untiled call (the GEMM size class is pinned to the full mode-n
// extent — blas.GemmArenaClass), so tiled results are bit-identical to
// untiled ones for every tile size; TestTiledBitIdentical pins this.

// DefaultTileBytes is the tile byte budget used when callers do not pick
// one: sized to a typical last-level-cache slice so a streamed tile (plus
// the KRP block and output block) stays cache-resident.
const DefaultTileBytes = 8 << 20

// AutoTileRows returns a TileRows value for a tensor with the given dims
// and mode n whose tile slab occupies at most budgetBytes (0 selects
// DefaultTileBytes): max(2, budget / (8·I_{≠n})) — or 0 (untiled) when the
// whole tensor already fits the budget.
func AutoTileRows(dims []int, n int, budgetBytes int64) int {
	if budgetBytes <= 0 {
		budgetBytes = DefaultTileBytes
	}
	rowElems := int64(1)
	for k, d := range dims {
		if k != n {
			rowElems *= int64(d)
		}
	}
	if rowElems <= 0 {
		return 0
	}
	rows := budgetBytes / (8 * rowElems)
	if rows >= int64(dims[n]) {
		return 0
	}
	if rows < 2 {
		// 1-row tiles are never produced: a single-row matricization can
		// legally take a different (layout-selected) BLAS sweep, which
		// would break the bit-identity contract.
		rows = 2
	}
	return int(rows)
}

// tiled reports whether opts request row tiling that would actually split
// this computation.
func tiled(x *tensor.Dense, n int, opts Options) bool {
	return opts.TileRows > 0 && x.Dim(n) > opts.TileRows
}

// OneStepTiledInto is OneStepInto streamed through mode-n row-block tiles
// of opts.TileRows rows (see the package comment above); with TileRows
// unset or no split needed it is exactly OneStepInto.
func OneStepTiledInto(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	validateDst(dst, x.Dim(n), rank(u))
	if !tiled(x, n, opts) {
		return OneStepInto(dst, x, u, n, opts)
	}
	return tiledInto(dst, x, u, n, opts, OneStepInto)
}

// TwoStepTiledInto is TwoStepInto streamed through mode-n row-block tiles
// of opts.TileRows rows; with TileRows unset or no split needed it is
// exactly TwoStepInto.
func TwoStepTiledInto(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options) mat.View {
	validate(x, u, n)
	validateDst(dst, x.Dim(n), rank(u))
	if !tiled(x, n, opts) {
		return TwoStepInto(dst, x, u, n, opts)
	}
	return tiledInto(dst, x, u, n, opts, TwoStepInto)
}

// tiledFrame is the workspace-cached state of the tile driver: the
// reusable tile tensor and operand list, plus the pre-bound gather body.
type tiledFrame struct {
	x          *tensor.Dense
	dims       []int
	u          []mat.View
	src, tile  []float64
	il, in     int
	r0, tw     int
	gatherBody func(w, lo, hi int)
}

func newTiledFrame() any {
	f := &tiledFrame{x: tensor.New(1)}
	// Gather: for each right index r, the tile's mode-n rows [r0, r0+tw)
	// are one contiguous run of tw·I^L_n entries in the source slab.
	f.gatherBody = func(_, lo, hi int) {
		run := f.tw * f.il
		for r := lo; r < hi; r++ {
			copy(f.tile[r*run:(r+1)*run], f.src[(r*f.in+f.r0)*f.il:])
		}
	}
	return f
}

var tileReleaseSlab = []float64{0}

func (f *tiledFrame) release() {
	f.u = clearViews(f.u)
	f.src, f.tile = nil, nil
	f.x.Reslice(tileReleaseSlab, []int{1}) // drop the caller's slab reference
}

func tiledInto(dst mat.View, x *tensor.Dense, u []mat.View, n int, opts Options, inner func(mat.View, *tensor.Dense, []mat.View, int, Options) mat.View) mat.View {
	in := x.Dim(n)
	il := x.SizeLeft(n)
	ir := x.SizeRight(n)
	c := rank(u)
	tr := opts.TileRows
	if tr < 2 {
		tr = 2
	}

	innerOpts := opts
	innerOpts.TileRows = 0
	innerOpts.tileClass = in

	p := opts.pool()
	t := p.Effective(opts.Threads)
	ws := p.Acquire()
	f := ws.Frame("core.tiled", newTiledFrame).(*tiledFrame)
	f.src = x.Data()
	f.il, f.in = il, in
	f.dims = f.dims[:0]
	for k := 0; k < x.Order(); k++ {
		f.dims = append(f.dims, x.Dim(k))
	}
	f.u = append(f.u[:0], u...)
	var buf []float64
	if ir > 1 {
		// +1 row: a trailing 1-row remainder is folded into the previous
		// tile rather than run on its own (see AutoTileRows). The lease is
		// frame-registered: release() clears f.tile before ws.Release().
		buf = arenaMat(ws.Arena(0), "core.tile.x", (tr+1)*il, ir).Data
	}

	for r0 := 0; r0 < in; {
		r1 := r0 + tr
		if r1 > in || in-r1 == 1 {
			r1 = in
		}
		tw := r1 - r0
		adviseTile(x, il, in, ir, r0, r1)
		var tile []float64
		if ir == 1 {
			// Mode N-1: the tile is one contiguous run of the slab — alias
			// it, streaming straight out of the mapping with no copy.
			tile = f.src[r0*il : r1*il]
		} else {
			tile = buf[:tw*il*ir]
			f.tile, f.r0, f.tw = tile, r0, tw
			p.For(t, ir, f.gatherBody)
		}
		f.dims[n] = tw
		f.x.Reslice(tile, f.dims)
		f.u[n] = u[n].Slice(r0, r1, 0, c)
		inner(dst.Slice(r0, r1, 0, c), f.x, f.u, n, innerOpts)
		r0 = r1
	}
	f.release()
	ws.Release()
	return dst
}

// adviseTile hints the OS to start readahead for the pages backing tile
// [r0, r1) of a mapped tensor. The tile spans I^R_n runs; per-run advice
// is only worth its syscall cost when runs are few and large.
func adviseTile(x *tensor.Dense, il, in, ir, r0, r1 int) {
	if !x.Mapped() {
		return
	}
	if ir == 1 {
		x.AdviseWillNeed(r0*il, r1*il)
		return
	}
	if ir > 64 {
		return // rely on the mapping-wide MADV_SEQUENTIAL hint
	}
	for r := 0; r < ir; r++ {
		lo := (r*in + r0) * il
		x.AdviseWillNeed(lo, lo+(r1-r0)*il)
	}
}

package blas

import (
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/simd"
)

// smallGemmFlops is the product size (m·n·k) at or below which
// GemmBlockedOn runs a direct loop instead of the blocked stripes.
// GemmArena has no such branch: on the block products measured for its
// callers (1-step's internal-mode blocks from 78·78·25 down to 8·8·8,
// and ttm's blocks at 8 and 16 rows, single-column ones included) the
// stripe ran as fast as the direct loop or faster.
const smallGemmFlops = 256 * 1024

// Gemm computes C = alpha*A*B + beta*C using t workers and default
// blocking. Transposition is expressed through views: pass A.T() for AᵀB.
// Parallel work runs on the default persistent pool; pack buffers come
// from the pool's reusable workspaces, so repeated calls allocate nothing.
func Gemm(t int, alpha float64, a, b mat.View, beta float64, c mat.View) {
	GemmBlockedOn(nil, t, alpha, a, b, beta, c, Blocking{})
}

// GemmOn is Gemm executed on an explicit executor (a pool or a
// scheduler-granted lease).
func GemmOn(p parallel.Executor, t int, alpha float64, a, b mat.View, beta float64, c mat.View) {
	GemmBlockedOn(p, t, alpha, a, b, beta, c, Blocking{})
}

// GemmBlocked is Gemm with explicit cache-blocking parameters (for the
// blocking ablation benchmark).
func GemmBlocked(t int, alpha float64, a, b mat.View, beta float64, c mat.View, bl Blocking) {
	GemmBlockedOn(nil, t, alpha, a, b, beta, c, bl)
}

// GemmArena computes C = alpha*A*B + beta*C sequentially on the calling
// goroutine, taking pack buffers from the given arena. It exists for
// kernel worker bodies, which already execute inside a parallel region and
// own a per-worker arena: calling it never touches a pool, so it is safe
// (and allocation-free) inside dispatched code.
func GemmArena(ar *parallel.Arena, alpha float64, a, b mat.View, beta float64, c mat.View) {
	m, n, k := checkGemmDims(a, b, c)
	if m == 0 || n == 0 {
		return
	}
	scaleRows(beta, c)
	if alpha == 0 || k == 0 {
		return
	}
	gemmStripe(alpha, a, b, c, Blocking{}.orDefault(), ar)
}

// GemmBlockedOn is the full GEMM entry point: explicit executor, worker
// count and blocking parameters. A nil executor selects the process-wide
// default pool, resolved only when pack buffers or a dispatch are actually
// needed.
func GemmBlockedOn(p parallel.Executor, t int, alpha float64, a, b mat.View, beta float64, c mat.View, bl Blocking) {
	m, n, k := checkGemmDims(a, b, c)
	gemmOn(p, t, int64(m)*int64(n)*int64(k) <= smallGemmFlops, alpha, a, b, beta, c, bl)
}

// gemmOn is GemmBlockedOn on checked operands with the small-vs-packed
// path chosen by the caller, so tests can run the packed path on tiny
// shapes.
func gemmOn(p parallel.Executor, t int, small bool, alpha float64, a, b mat.View, beta float64, c mat.View, bl Blocking) {
	m, n, k := a.R, b.C, a.C
	if m == 0 || n == 0 {
		return
	}
	t = parallel.EffectiveOn(p, t) // one resolution rule everywhere; leases cap at their budget
	if t <= 1 || (small && m < 2*t) {
		scaleRows(beta, c)
		if alpha == 0 || k == 0 {
			return
		}
		if small {
			gemmSmallAcc(alpha, a, b, c)
			return
		}
		p = parallel.OrDefault(p)
		ws := p.Acquire()
		gemmStripe(alpha, a, b, c, bl.orDefault(), ws.Arena(0))
		ws.Release()
		return
	}

	p = parallel.OrDefault(p)
	ws := p.Acquire()
	f := ws.Frame("blas.gemm", newGemmFrame).(*gemmFrame)
	f.alpha, f.beta = alpha, beta
	f.a, f.b, f.c = a, b, c
	f.m, f.n, f.k = m, n, k
	f.bl = bl.orDefault()
	f.ws = ws
	if beta != 1 {
		p.For(t, c.R, f.scaleBody)
	}
	switch {
	case alpha == 0 || k == 0:
	case small:
		p.For(t, m, f.smallBody)
	default:
		// Worker split: divide the M dimension into contiguous stripes, one
		// per worker. Each worker runs the full blocked loop nest on its
		// stripe, reading its A rows in place (or packing them). B panels
		// are packed redundantly per worker; for the tall-and-skinny
		// shapes MTTKRP produces (huge M, small N) the duplicated packing
		// cost is negligible and avoiding cross-worker synchronization
		// keeps the scaling clean. The K dimension is never split (see
		// package comment).
		f.tm = parallel.Clamp(t, (m+mr-1)/mr)
		if f.tm == 1 {
			gemmStripe(alpha, a, b, c, f.bl, ws.Arena(0))
		} else {
			ws.Arena(f.tm - 1) // pre-grow arenas before the dispatch
			p.Run(f.tm, f.stripeBody)
		}
	}
	f.a, f.b, f.c = mat.View{}, mat.View{}, mat.View{}
	f.ws = nil
	ws.Release()
}

// gemmFrame holds the per-call parameters of a parallel GEMM plus the
// pre-bound worker closures, cached in a workspace so dispatching repeated
// GEMMs allocates nothing.
type gemmFrame struct {
	alpha, beta float64
	a, b, c     mat.View
	m, n, k, tm int
	bl          Blocking
	ws          *parallel.Workspace
	scaleBody   func(w, lo, hi int)
	smallBody   func(w, lo, hi int)
	stripeBody  func(w int)
}

func newGemmFrame() any {
	f := &gemmFrame{}
	f.scaleBody = func(_, lo, hi int) {
		scaleRows(f.beta, f.c.Slice(lo, hi, 0, f.n))
	}
	f.smallBody = func(_, lo, hi int) {
		gemmSmallAcc(f.alpha, f.a.Slice(lo, hi, 0, f.k), f.b, f.c.Slice(lo, hi, 0, f.n))
	}
	f.stripeBody = func(w int) {
		r0, r1 := parallel.BlockRange((f.m+mr-1)/mr, f.tm, w)
		lo, hi := r0*mr, r1*mr
		if hi > f.m {
			hi = f.m
		}
		if lo >= hi {
			return
		}
		gemmStripe(f.alpha, f.a.Slice(lo, hi, 0, f.k), f.b, f.c.Slice(lo, hi, 0, f.n), f.bl, f.ws.Arena(w))
	}
	return f
}

// scaleRows computes C *= beta sequentially (beta == 0 clears).
func scaleRows(beta float64, c mat.View) {
	if beta == 1 {
		return
	}
	if beta == 0 {
		c.Zero()
		return
	}
	if c.CS == 1 {
		for i := 0; i < c.R; i++ {
			simd.Scale(beta, c.Data[i*c.RS:i*c.RS+c.C])
		}
		return
	}
	for i := 0; i < c.R; i++ {
		for j := 0; j < c.C; j++ {
			c.Set(i, j, beta*c.At(i, j))
		}
	}
}

// gemmSmallAcc computes C += alpha*A*B for small problems, dispatching to
// an i-k-j sweep over contiguous rows when the layouts allow (the common
// case: row-major KRP blocks times row-major outputs) and a direct triple
// loop otherwise.
func gemmSmallAcc(alpha float64, a, b, c mat.View) {
	if b.CS == 1 && c.CS == 1 {
		gemmIKJ(alpha, a, b, c)
		return
	}
	gemmNaiveAcc(alpha, a, b, c)
}

// gemmIKJ computes C += alpha*A*B with an i-k-j loop: each A element
// scales a contiguous row of B into a contiguous row of C. Requires unit
// column strides on B and C.
func gemmIKJ(alpha float64, a, b, c mat.View) {
	m, n, k := a.R, b.C, a.C
	for i := 0; i < m; i++ {
		crow := c.Data[i*c.RS : i*c.RS+n]
		for p := 0; p < k; p++ {
			aip := alpha * a.At(i, p)
			if aip == 0 {
				continue
			}
			// crow += aip * brow: the axpy kernel, elementwise and
			// mul-then-add, so the vectorized path is bit-identical.
			simd.Axpy(aip, b.Data[p*b.RS:p*b.RS+n], crow)
		}
	}
}

// gemmNaiveAcc computes C += alpha*A*B with a direct loop; used for tiny
// problems with awkward strides and as the reference in tests.
func gemmNaiveAcc(alpha float64, a, b, c mat.View) {
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for p := 0; p < a.C; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Add(i, j, alpha*s)
		}
	}
}

// gemmStripe runs the blocked GEMM (BLIS structure) on one contiguous
// stripe of rows, sequentially: C += alpha*A*B. Scratch is leased from
// the worker's arena, so same-shaped stripes reuse one pair of buffers.
//
// A unit-stride A (RS == 1 or CS == 1, the tensor itself in every MTTKRP
// GEMM) is read in place: each whole group of 12 rows goes through
// simd.Gemm12x4ColA or simd.Gemm12x4RowA straight from the tensor, and
// only the m mod 12 rows left over are packed. B is packed one
// super-block of kb whole KC blocks at a time, and each 12-row group walks
// the super-block's KC blocks against every B panel before the next group
// starts: A streams through once per super-block, and each in-place
// micro-panel meets every B panel while it is still in L1. A column-major
// micro-panel spans kc columns lda apart, so the column tile packs it
// into packA as it serves the first B panel, and the other panels run
// simd.Gemm12x4 on that copy: A is read from memory once per KC block.
// The row tile's 12 row streams stay in L1 on their own and read A for
// every panel. The B super-block takes the room a packed A block would,
// so the stripe's scratch never exceeds the packed path's packA + packB.
//
// Strided A, m < 12 and the leftover rows take the packed path: each
// mc×kc block of A is copied into panels, whole groups of three panels go
// through simd.Gemm12x4 and the one or two left over through
// simd.Gemm4x4. Every tile computes each C element as one FMA chain over
// its KC block in k order, and every C element gets its blocks' chains
// added in pc order, so which tile, group, path or worker stripe a row
// lands in never changes its bits.
func gemmStripe(alpha float64, a, b, c mat.View, bl Blocking, ar *parallel.Arena) {
	m, n, k := a.R, b.C, a.C
	kcMax := min(bl.KC, k)
	ncMax := min(bl.NC, roundUp(n, nr))
	mcMax := min(bl.MC, roundUp(m, mr))
	grouped := 0 // rows [0, grouped) run in place
	if a.RS == 1 || a.CS == 1 {
		grouped = m - m%(3*mr)
	}
	// packA holds mc packed rows on the packed path. On the in-place path
	// it holds the column tile's 12-row copy of each micro-panel and,
	// after the groups, the m mod 12 leftover rows. It is never under 3·mr
	// rows, so an arena serving both paths never regrows it, and its rows
	// count against the B super-block's room.
	packed, kb := max(mcMax, 3*mr), 1 // rows of packA, KC blocks per B super-block
	if grouped > 0 {
		packed = 3 * mr
		kb = max(1, min(mcMax, mcMax+ncMax-packed)/ncMax)
		kb = min(kb, (k+bl.KC-1)/bl.KC)
	}
	ap := ar.Float64("blas.packA", packed*kcMax)
	bp := ar.Float64("blas.packB", kb*kcMax*ncMax)
	// The tile accumulators live in the arena rather than on the stack:
	// escape analysis cannot see through the simd dispatch pointer, so a
	// stack local would be moved to the heap on every stripe. The 4×4
	// tile reuses the first 16 entries of the 12×4 one.
	acc := (*[3 * mr * nr]float64)(ar.Float64("blas.acc", 3*mr*nr))
	for jc := 0; jc < n; jc += bl.NC {
		nc := min(bl.NC, n-jc)
		nc4 := roundUp(nc, nr)
		cBlk := c.Slice(0, m, jc, jc+nc)
		for ps := 0; ps < k; ps += kb * bl.KC {
			pe := min(ps+kb*bl.KC, k)
			for pc := ps; pc < pe; pc += bl.KC {
				packB(b.Slice(pc, min(pc+bl.KC, pe), jc, jc+nc), bp[(pc-ps)*nc4:])
			}
			for ir := 0; ir < grouped; ir += 3 * mr {
				for pc := ps; pc < pe; pc += bl.KC {
					kc := min(bl.KC, pe-pc)
					bBlk := bp[(pc-ps)*nc4:]
					if a.RS == 1 {
						// The first B panel reads the micro-panel from A
						// and packs it; the others read that L1 copy.
						simd.Gemm12x4ColA(kc, a.Data[pc*a.CS+ir:], a.CS, ap, bBlk, acc)
						writeBack(alpha, acc[:], 1, 3*mr, cBlk, ir, 0, 3*mr, min(nr, nc))
						for jr := nr; jr < nc; jr += nr {
							simd.Gemm12x4(kc, ap, bBlk[jr*kc:], acc)
							writeBack(alpha, acc[:], 1, 3*mr, cBlk, ir, jr, 3*mr, min(nr, nc-jr))
						}
						continue
					}
					for jr := 0; jr < nc; jr += nr {
						simd.Gemm12x4RowA(kc, a.Data[ir*a.RS+pc:], a.RS, bBlk[jr*kc:], acc)
						writeBack(alpha, acc[:], nr, 1, cBlk, ir, jr, 3*mr, min(nr, nc-jr))
					}
				}
			}
			for ic := grouped; ic < m; ic += bl.MC {
				mc := min(bl.MC, m-ic)
				for pc := ps; pc < pe; pc += bl.KC {
					kc := min(bl.KC, pe-pc)
					packA(a.Slice(ic, ic+mc, pc, pc+kc), ap)
					gemmPanels(alpha, kc, ap, bp[(pc-ps)*nc4:], acc, cBlk.Slice(ic, ic+mc, 0, nc))
				}
			}
		}
	}
}

// gemmPanels multiplies one packed mc×kc block of A (ap) by every packed
// B panel of a KC block (bp) and adds alpha times the product into the
// mc×nc block cBlk: whole groups of three A panels through simd.Gemm12x4,
// the one or two panels left over through simd.Gemm4x4.
func gemmPanels(alpha float64, kc int, ap, bp []float64, acc *[3 * mr * nr]float64, cBlk mat.View) {
	mc, nc := cBlk.R, cBlk.C
	acc4 := (*[mr * nr]float64)(acc[:mr*nr])
	for jr := 0; jr < nc; jr += nr {
		nrr := min(nr, nc-jr)
		bPanel := bp[jr*kc:]
		ir := 0
		for ; ir+2*mr < mc; ir += 3 * mr { // a third panel starts below mc
			simd.Gemm12x4(kc, ap[ir*kc:], bPanel, acc)
			writeBack(alpha, acc[:], 1, 3*mr, cBlk, ir, jr, min(3*mr, mc-ir), nrr)
		}
		for ; ir < mc; ir += mr {
			simd.Gemm4x4(kc, ap[ir*kc:], bPanel, acc4)
			writeBack(alpha, acc4[:], nr, 1, cBlk, ir, jr, min(mr, mc-ir), nrr)
		}
	}
}

// packA copies an mc×kc block of A into micro-panels of mr rows stored
// column-by-column: panel p, column q, row r lives at
// ap[p*mr*kc + q*mr + r]. Rows beyond mc are zero-padded so the
// micro-kernel never branches. Packing is a pure copy, so every path
// yields the same panel bits; the unit-stride paths exist because A is
// the tensor itself and this copy streams every entry once per GEMM.
func packA(a mat.View, ap []float64) {
	switch {
	case a.RS == 1:
		packAColMajor(a, ap)
	case a.CS == 1:
		packARowMajor(a, ap)
	default:
		packAStrided(a, ap)
	}
}

// packAColMajor packs a unit-row-stride A (X_(0), the 2-step X_(0:n)):
// each column is one contiguous mc-run, read in memory order and
// scattered in groups of mr into the panels.
func packAColMajor(a mat.View, ap []float64) {
	mc, kc := a.R, a.C
	full := mc / mr
	rem := mc - full*mr
	panel := mr * kc
	for q := 0; q < kc; q++ {
		col := a.Data[q*a.CS : q*a.CS+mc]
		off := q * mr
		for p := 0; p < full; p++ {
			s := col[p*mr : p*mr+mr : p*mr+mr]
			d := ap[off : off+mr : off+mr]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			off += panel
		}
		if rem > 0 {
			d := ap[off : off+mr]
			copy(d, col[full*mr:])
			clear(d[rem:])
		}
	}
}

// packARowMajor packs a unit-column-stride A (X_(N-1), the 2-step
// X_(0:n-1)ᵀ, mode blocks): the mr source rows of a panel are sliced once
// so the column loop runs without bounds checks.
func packARowMajor(a mat.View, ap []float64) {
	mc, kc := a.R, a.C
	full := mc / mr
	for p := 0; p < full; p++ {
		base := p * mr * a.RS
		r0 := a.Data[base : base+kc]
		r1 := a.Data[base+a.RS:][:len(r0)]
		r2 := a.Data[base+2*a.RS:][:len(r0)]
		r3 := a.Data[base+3*a.RS:][:len(r0)]
		dst := ap[p*mr*kc:][:mr*len(r0)]
		for q := range r0 {
			d := dst[q*mr : q*mr+mr : q*mr+mr]
			d[0], d[1], d[2], d[3] = r0[q], r1[q], r2[q], r3[q]
		}
	}
	if rem := mc - full*mr; rem > 0 {
		dst := ap[full*mr*kc:][:mr*kc]
		clear(dst)
		for r := 0; r < rem; r++ {
			off := (full*mr + r) * a.RS
			for q, v := range a.Data[off : off+kc] {
				dst[q*mr+r] = v
			}
		}
	}
}

// packAStrided is the generic packer for views with no unit stride.
func packAStrided(a mat.View, ap []float64) {
	mc, kc := a.R, a.C
	idx := 0
	for p := 0; p < mc; p += mr {
		rows := min(mr, mc-p)
		for q := 0; q < kc; q++ {
			for r := 0; r < rows; r++ {
				ap[idx+r] = a.At(p+r, q)
			}
			for r := rows; r < mr; r++ {
				ap[idx+r] = 0
			}
			idx += mr
		}
	}
}

// packB copies a kc×nc block of B into micro-panels of nr columns stored
// row-by-row: panel p, row q, column cidx lives at
// bp[p*nr*kc + q*nr + cidx], zero-padded to nr columns. Every B that
// MTTKRP passes (KRP blocks, K_L, K_R) is row-major, so the unit
// column-stride case copies nr contiguous entries per row.
func packB(b mat.View, bp []float64) {
	kc, nc := b.R, b.C
	idx := 0
	for p := 0; p < nc; p += nr {
		cols := min(nr, nc-p)
		if b.CS == 1 {
			for q := 0; q < kc; q++ {
				base := q*b.RS + p
				d := bp[idx : idx+nr : idx+nr]
				if cols == nr {
					s := b.Data[base : base+nr : base+nr]
					d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				} else {
					copy(d, b.Data[base:base+cols])
					clear(d[cols:])
				}
				idx += nr
			}
			continue
		}
		for q := 0; q < kc; q++ {
			for cidx := 0; cidx < cols; cidx++ {
				bp[idx+cidx] = b.At(q, p+cidx)
			}
			for cidx := cols; cidx < nr; cidx++ {
				bp[idx+cidx] = 0
			}
			idx += nr
		}
	}
}

// writeBack adds alpha times the mrr×nrr corner of a finished tile into C
// at (ir, jr). Tile element (r, q) sits at acc[r*rs+q*cs]: the 4×4 tile is
// row-major (rs 4, cs 1), the 12×4 tile column-major (rs 1, cs 12). With
// alpha == 1 (every MTTKRP call) it adds acc straight into contiguous C
// rows (the 1-step outputs) or columns (the 2-step column-major
// intermediate); 1*x == x exactly, so the bits match the generic loop.
func writeBack(alpha float64, acc []float64, rs, cs int, c mat.View, ir, jr, mrr, nrr int) {
	switch {
	case alpha == 1 && c.CS == 1:
		for r := 0; r < mrr; r++ {
			off := (ir+r)*c.RS + jr
			row := c.Data[off : off+nrr]
			for q := range row {
				row[q] += acc[r*rs+q*cs]
			}
		}
		return
	case alpha == 1 && c.RS == 1:
		for q := 0; q < nrr; q++ {
			off := (jr+q)*c.CS + ir
			col := c.Data[off : off+mrr]
			for r := range col {
				col[r] += acc[r*rs+q*cs]
			}
		}
		return
	}
	for r := 0; r < mrr; r++ {
		for q := 0; q < nrr; q++ {
			c.Add(ir+r, jr+q, alpha*acc[r*rs+q*cs])
		}
	}
}

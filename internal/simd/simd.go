// Package simd provides the vectorized micro-kernels behind the library's
// flop core: the unit-stride level-1 loops (dot, axpy, Hadamard products),
// the GEMM micro-kernels (12×4 and 4×4 on packed panels, and two 12×4
// tiles that read A where it lies), the Khatri-Rao row expansion, and
// the elementwise accumulation used by the parallel reduction. Every
// kernel exists twice — a portable scalar reference implementation
// (unrolled, bounds-check-eliminated Go) and, on amd64 with AVX2 and FMA,
// a hand-written assembly version — and the package dispatches between
// them through function pointers selected once at startup.
//
// # Bit-identity contract
//
// The scalar implementation is the reference: a vectorized kernel must
// produce bit-identical results for every input, so which machine (or
// which MTTKRP_NOSIMD setting) served a request can never change the bytes
// of its response. Concretely that means the vector kernels preserve the
// scalar's rounding sequence and its accumulation grouping. The GEMM tiles
// compute every output element as one fused multiply-add chain in k order
// (VFMADD231PD, mirrored by math.FMA in the reference), so every tile,
// packed or in place, gives an element the same bits; every other kernel
// rounds each product before its add (separate VMULPD and VADDPD,
// mirrored by a*b + c in Go, which the compiler does not contract on
// amd64). Dot's scalar reference carries exactly as many independent
// partial sums as the vector version has lanes, folded in the same order.
// The property is pinned by TestKernelsBitIdentical and the per-tile tests
// across random sizes, tails and aliasing patterns, and at the MTTKRP
// level by the core and serve dispatch tests.
//
// One exception: NaN payloads. When two NaNs with different payloads meet
// in one operation (a NaN input and the default NaN of 0·∞, say), the
// result is a NaN under every implementation, but its sign and payload
// are those of the operand the instruction takes first, and for the
// scalar code Go leaves that order to the compiler (it differs under
// -race). So a response whose inputs carry NaNs may differ in NaN bits
// between hosts or builds; every result without two differing NaN
// operands follows the contract. For that reason TestHadAxpyBitIdentical's
// special values use the hardware's default NaN (made at run time by
// 0·∞) as their only NaN, so every NaN that meets another in its sweep
// has the same bits.
//
// # Operand lengths
//
// Every vector kernel applies its scalar reference's length checks before
// any assembly runs, so a short operand panics with the same runtime error
// under either implementation instead of reading or writing past the
// slice (TestKernelsShortOperandsPanic).
//
// # Aliasing
//
// Kernels tolerate exact aliasing between their operands (z == x or
// z == y for Had — krp.Row computes out = out ∗ row in place), because
// every vector group is fully loaded before its store. Partially
// overlapping slices are not supported.
//
// # Dispatch
//
// Active kernels are package-level function pointers, assigned once by
// Use. Startup selects Best(): the AVX2 implementation when the CPU
// reports AVX2 and FMA, the OS saves ymm state, and the MTTKRP_NOSIMD
// environment variable is unset (any value other than "" and "0" forces
// the scalar path); that variable is the one switch, in every binary.
// Use may be called again — tests do — but only while no kernel is
// executing: the pointers are written without synchronization, so swapping
// mid-flight is a data race. The indirection itself is allocation-free;
// the entry points are annotated //mttkrp:noalloc and mttkrp-lint checks
// through the pointer call.
package simd

import "os"

// Impl bundles one complete implementation of every kernel. The two
// instances are Scalar() and, on capable amd64 hosts, the AVX2
// implementation returned by Best().
type Impl struct {
	// Name identifies the implementation in banners and bench tables:
	// "scalar" or "avx2".
	Name string

	// Dot returns Σ x[i]·y[i]. Requires len(y) ≥ len(x); only the first
	// len(x) elements participate. The reference keeps eight independent
	// partial sums over stride-8 groups, folds them left-to-right, then
	// accumulates the tail one element at a time.
	Dot func(x, y []float64) float64

	// Axpy computes y[i] += alpha·x[i] over len(x) elements. The caller
	// is responsible for the alpha == 0 early-out (skipping it is not
	// bit-neutral for y = -0 inputs, so the kernel never second-guesses).
	Axpy func(alpha float64, x, y []float64)

	// Scale computes x[i] *= alpha.
	Scale func(alpha float64, x []float64)

	// Had computes z[i] = x[i]·y[i]. z may alias x or y exactly.
	Had func(x, y, z []float64)

	// HadAxpy computes z[i] += alpha·(x[i]·y[i]) over len(z) elements,
	// rounding exactly as Had into a buffer followed by Axpy: the product
	// x[i]·y[i], then its alpha multiple, then the add. It is the sparse
	// MTTKRP's per-entry update. z may alias x or y exactly.
	HadAxpy func(alpha float64, x, y, z []float64)

	// Add computes y[i] += x[i] — the inner loop of the parallel
	// reduction over per-worker partial outputs.
	Add func(x, y []float64)

	// Gemm4x4 is the GEMM micro-kernel for one 4-row panel: acc =
	// (4×kc packed panel ap) · (kc×4 packed panel bp), accumulators zeroed
	// on entry and written back row-major (acc[r*4+c] is C(r, c)). Panels
	// are packed as in blas: ap[p*4+r] is A(r, p), bp[p*4+c] is B(p, c).
	// Each element is one fused multiply-add chain over p in order.
	Gemm4x4 func(kc int, ap, bp []float64, acc *[16]float64)

	// Gemm12x4 is the GEMM micro-kernel for three consecutive 4-row
	// panels: ap holds 12·kc packed elements (panel q of the group at
	// ap[q*4*kc:]), bp one 4-column panel. The tile is written back
	// column-major: acc[c*12+r] is C(r, c). Each element is the same
	// fused multiply-add chain Gemm4x4 computes for it.
	Gemm12x4 func(kc int, ap, bp []float64, acc *[48]float64)

	// Gemm12x4ColA is Gemm12x4 reading 12 rows of a column-major A in
	// place: A(r, q) is a[q*lda+r], so column q's 12 rows are contiguous.
	// As it reads them it stores them into ap in Gemm12x4's three-panel
	// layout (A(r, q) at ap[(r/4)*4*kc+q*4+r%4]), so the caller's other B
	// panels run Gemm12x4 on that copy instead of reading A again. bp and
	// the column-major tile are as in Gemm12x4, and each element is the
	// same FMA chain, so the tile equals Gemm12x4's on ap. The AVX2 kernel
	// prefetches the next 12 rows of every column it reads (the next group
	// of a blocked GEMM) and the current rows 16 columns ahead; a prefetch
	// never faults, so a may end at the group's last row. ap must not
	// overlap a.
	Gemm12x4ColA func(kc int, a []float64, lda int, ap, bp []float64, acc *[48]float64)

	// Gemm12x4RowA is the in-place tile over a row-major A: A(r, q) is
	// a[r*lda+q], 12 contiguous row streams. Lanes run along N: per k step
	// the tile broadcasts each row's entry against B's row q, so the tile
	// is row-major (acc[r*4+c] is C(r, c)). Each element is the same FMA
	// chain as in Gemm12x4.
	Gemm12x4RowA func(kc int, a []float64, lda int, bp []float64, acc *[48]float64)

	// HadExpand computes out(l, :) = row ∗ kl(l, :) over flat row-major
	// kl and out of len(kl) = rows·len(row) — the 1-step internal-mode
	// KRP block expansion. out must not overlap row; out == kl exactly
	// is tolerated.
	HadExpand func(row, kl, out []float64)
}

// Active dispatch pointers. Written only by Use; read by the entry points
// below on every kernel call.
var (
	active    *Impl
	dot       func(x, y []float64) float64
	axpy      func(alpha float64, x, y []float64)
	scale     func(alpha float64, x []float64)
	had       func(x, y, z []float64)
	hadAxpy   func(alpha float64, x, y, z []float64)
	add       func(x, y []float64)
	gemm4x4   func(kc int, ap, bp []float64, acc *[16]float64)
	gemm12x4  func(kc int, ap, bp []float64, acc *[48]float64)
	gemmColA  func(kc int, a []float64, lda int, ap, bp []float64, acc *[48]float64)
	gemmRowA  func(kc int, a []float64, lda int, bp []float64, acc *[48]float64)
	hadExpand func(row, kl, out []float64)
)

var scalarImpl = Impl{
	Name:         "scalar",
	Dot:          dotScalar,
	Axpy:         axpyScalar,
	Scale:        scaleScalar,
	Had:          hadScalar,
	HadAxpy:      hadAxpyScalar,
	Add:          addScalar,
	Gemm4x4:      gemm4x4Scalar,
	Gemm12x4:     gemm12x4Scalar,
	Gemm12x4ColA: gemm12x4ColAScalar,
	Gemm12x4RowA: gemm12x4RowAScalar,
	HadExpand:    hadExpandScalar,
}

// Scalar returns the portable reference implementation.
func Scalar() *Impl { return &scalarImpl }

// Vector returns the vectorized implementation for this CPU, or nil when
// none exists (non-amd64 builds, or amd64 without AVX2, FMA or OS ymm
// support).
// It ignores MTTKRP_NOSIMD — that override gates selection (Best), not
// existence, so tests and benchmarks can always compare both.
func Vector() *Impl { return vectorImpl() }

// Best returns the implementation startup dispatch selects: Vector() when
// available and not disabled by the MTTKRP_NOSIMD environment variable,
// Scalar() otherwise.
func Best() *Impl {
	if v := Vector(); v != nil && !noSIMDEnv(os.Getenv("MTTKRP_NOSIMD")) {
		return v
	}
	return &scalarImpl
}

// noSIMDEnv reports whether an MTTKRP_NOSIMD value disables vector
// dispatch: any value other than empty and "0" does.
func noSIMDEnv(v string) bool { return v != "" && v != "0" }

// Use installs impl as the active kernel set. It must only be called while
// no kernel is executing (startup, test setup, the serving A/B flags): the
// dispatch pointers are unsynchronized.
func Use(impl *Impl) {
	active = impl
	dot = impl.Dot
	axpy = impl.Axpy
	scale = impl.Scale
	had = impl.Had
	hadAxpy = impl.HadAxpy
	add = impl.Add
	gemm4x4 = impl.Gemm4x4
	gemm12x4 = impl.Gemm12x4
	gemmColA = impl.Gemm12x4ColA
	gemmRowA = impl.Gemm12x4RowA
	hadExpand = impl.HadExpand
}

// Active returns the currently installed implementation.
func Active() *Impl { return active }

func init() { Use(Best()) }

// Dot returns Σ x[i]·y[i] via the active kernel. len(y) must be ≥ len(x).
//
//mttkrp:noalloc
func Dot(x, y []float64) float64 { return dot(x, y) }

// Axpy computes y += alpha·x via the active kernel. len(y) must be ≥
// len(x); callers keep the alpha == 0 early-out.
//
//mttkrp:noalloc
func Axpy(alpha float64, x, y []float64) { axpy(alpha, x, y) }

// Scale computes x *= alpha via the active kernel.
//
//mttkrp:noalloc
func Scale(alpha float64, x []float64) { scale(alpha, x) }

// Had computes z = x ∗ y via the active kernel. Lengths must match; z may
// alias x or y exactly.
//
//mttkrp:noalloc
func Had(x, y, z []float64) { had(x, y, z) }

// HadAxpy computes z += alpha·(x ∗ y) via the active kernel, with the
// roundings of Had followed by Axpy. len(x) and len(y) must be ≥ len(z);
// z may alias x or y exactly.
//
//mttkrp:noalloc
func HadAxpy(alpha float64, x, y, z []float64) { hadAxpy(alpha, x, y, z) }

// Add computes y += x via the active kernel. len(y) must be ≥ len(x).
//
//mttkrp:noalloc
func Add(x, y []float64) { add(x, y) }

// Gemm4x4 runs the 4×4 micro-kernel via the active kernel. ap and bp must
// hold at least 4·kc packed elements each.
//
//mttkrp:noalloc
func Gemm4x4(kc int, ap, bp []float64, acc *[16]float64) { gemm4x4(kc, ap, bp, acc) }

// Gemm12x4 runs the 12×4 micro-kernel via the active kernel. ap must hold
// at least 12·kc packed elements (three consecutive 4-row panels), bp at
// least 4·kc.
//
//mttkrp:noalloc
func Gemm12x4(kc int, ap, bp []float64, acc *[48]float64) { gemm12x4(kc, ap, bp, acc) }

// Gemm12x4ColA runs the in-place 12×4 tile over a column-major A via the
// active kernel: A(r, q) is a[q*lda+r]. It also packs the 12 rows into ap
// as Gemm12x4 reads them. a must hold (kc-1)·lda+12 elements when kc > 0,
// ap at least 12·kc and bp at least 4·kc; the tile is column-major.
//
//mttkrp:noalloc
func Gemm12x4ColA(kc int, a []float64, lda int, ap, bp []float64, acc *[48]float64) {
	gemmColA(kc, a, lda, ap, bp, acc)
}

// Gemm12x4RowA runs the in-place 12×4 tile over a row-major A via the
// active kernel: A(r, q) is a[r*lda+q]. a must hold 11·lda+kc elements
// when kc > 0, bp at least 4·kc; the tile is row-major.
//
//mttkrp:noalloc
func Gemm12x4RowA(kc int, a []float64, lda int, bp []float64, acc *[48]float64) {
	gemmRowA(kc, a, lda, bp, acc)
}

// HadExpand computes out(l, :) = row ∗ kl(l, :) over flat row-major
// buffers via the active kernel. len(kl) and len(out) must equal
// rows·len(row) for some whole number of rows.
//
//mttkrp:noalloc
func HadExpand(row, kl, out []float64) { hadExpand(row, kl, out) }

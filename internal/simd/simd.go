// Package simd provides the vectorized micro-kernels behind the library's
// flop core: the unit-stride level-1 loops (dot, axpy, Hadamard products),
// the 12×4 and 4×4 GEMM micro-kernels, the Khatri-Rao row expansion, and
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
// (VFMADD231PD, mirrored by math.FMA in the reference), so the 12×4 and
// the 4×4 tile give an element the same bits; every other kernel rounds
// each product before its add (separate VMULPD and VADDPD, mirrored by
// a*b + c in Go, which the compiler does not contract on amd64). A
// reduction kernel's scalar reference carries exactly as many independent
// partial sums as the vector version has lanes, folded in the same order.
// The property is pinned by TestKernelsBitIdentical and the per-tile tests
// across random sizes, tails and aliasing patterns, and at the MTTKRP
// level by the core and serve dispatch tests.
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
// z == y for the Hadamard family — krp.Row computes out = out ∗ row in
// place), because every vector group is fully loaded before its store.
// Partially overlapping slices are not supported.
//
// # Dispatch
//
// Active kernels are package-level function pointers, assigned once by
// Use. Startup selects Best(): the AVX2 implementation when the CPU
// reports AVX2 and FMA, the OS saves ymm state, and the MTTKRP_NOSIMD
// environment variable is unset (any value other than "" and "0" forces
// the scalar path). Use may be called again — tests and the serving A/B
// flags (-simd=off, -nosimd) do — but only while no kernel is executing:
// the pointers are written without synchronization, so swapping
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

	// HadAcc computes z[i] += x[i]·y[i]. z may alias x or y exactly.
	HadAcc func(x, y, z []float64)

	// Add computes y[i] += x[i] — the inner loop of the parallel
	// reduction over per-worker partial outputs.
	Add func(x, y []float64)

	// SumAbs returns Σ |x[i]|. The reference keeps four independent
	// partial sums over stride-4 groups (one vector register), folds them
	// left-to-right, then accumulates the tail.
	SumAbs func(x []float64) float64

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
	hadAcc    func(x, y, z []float64)
	add       func(x, y []float64)
	sumAbs    func(x []float64) float64
	gemm4x4   func(kc int, ap, bp []float64, acc *[16]float64)
	gemm12x4  func(kc int, ap, bp []float64, acc *[48]float64)
	hadExpand func(row, kl, out []float64)
)

var scalarImpl = Impl{
	Name:      "scalar",
	Dot:       dotScalar,
	Axpy:      axpyScalar,
	Scale:     scaleScalar,
	Had:       hadScalar,
	HadAcc:    hadAccScalar,
	Add:       addScalar,
	SumAbs:    sumAbsScalar,
	Gemm4x4:   gemm4x4Scalar,
	Gemm12x4:  gemm12x4Scalar,
	HadExpand: hadExpandScalar,
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
	hadAcc = impl.HadAcc
	add = impl.Add
	sumAbs = impl.SumAbs
	gemm4x4 = impl.Gemm4x4
	gemm12x4 = impl.Gemm12x4
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

// HadAcc computes z += x ∗ y via the active kernel. Lengths must match; z
// may alias x or y exactly.
//
//mttkrp:noalloc
func HadAcc(x, y, z []float64) { hadAcc(x, y, z) }

// Add computes y += x via the active kernel. len(y) must be ≥ len(x).
//
//mttkrp:noalloc
func Add(x, y []float64) { add(x, y) }

// SumAbs returns Σ |x[i]| via the active kernel.
//
//mttkrp:noalloc
func SumAbs(x []float64) float64 { return sumAbs(x) }

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

// HadExpand computes out(l, :) = row ∗ kl(l, :) over flat row-major
// buffers via the active kernel. len(kl) and len(out) must equal
// rows·len(row) for some whole number of rows.
//
//mttkrp:noalloc
func HadExpand(row, kl, out []float64) { hadExpand(row, kl, out) }

//go:build amd64

package simd

// cpuid executes the CPUID instruction with the given leaf/subleaf
// (implemented in cpuid_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0), which reports which
// register states the OS saves across context switches.
func xgetbv() (eax, edx uint32)

// avx2Impl is the vectorized kernel set, nil when the host cannot run it.
// It is a package-level variable initializer (not an init function) so it
// is ready before simd.go's init installs Best().
var avx2Impl = detectAVX2()

func vectorImpl() *Impl { return avx2Impl }

// detectAVX2 probes CPUID for AVX2 and FMA and for OS support of the ymm
// register state. FMA is required because the GEMM tiles accumulate with
// VFMADD231PD (the scalar references mirror it with math.FMA, see the
// package comment's bit-identity contract).
func detectAVX2() *Impl {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return nil
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return nil
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS preserves xmm and ymm state.
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 {
		return nil
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	if ebx7&avx2 == 0 {
		return nil
	}
	return &Impl{
		Name:         "avx2",
		Dot:          dotVec,
		Axpy:         axpyVec,
		Scale:        scaleAVX2,
		Had:          hadVec,
		HadAxpy:      hadAxpyVec,
		Add:          addVec,
		Gemm4x4:      gemm4x4Vec,
		Gemm12x4:     gemm12x4Vec,
		Gemm12x4ColA: gemm12x4ColAVec,
		Gemm12x4RowA: gemm12x4RowAVec,
		HadExpand:    hadExpandVec,
	}
}

// The vector entries below apply their scalar reference's length checks
// (the same reslices, so the same runtime panic) before the assembly
// runs: the assembly trusts its lengths and would otherwise read or
// write past a short operand. Scale has one operand and needs no
// wrapper.

//mttkrp:noalloc
func dotVec(x, y []float64) float64 { return dotAVX2(x, y[:len(x)]) }

//mttkrp:noalloc
func axpyVec(alpha float64, x, y []float64) { axpyAVX2(alpha, x, y[:len(x)]) }

//mttkrp:noalloc
func hadVec(x, y, z []float64) {
	n := len(z)
	hadAVX2(x[:n], y[:n], z)
}

//mttkrp:noalloc
func hadAxpyVec(alpha float64, x, y, z []float64) {
	n := len(z)
	hadAxpyAVX2(alpha, x[:n], y[:n], z)
}

//mttkrp:noalloc
func addVec(x, y []float64) { addAVX2(x, y[:len(x)]) }

//mttkrp:noalloc
func gemm4x4Vec(kc int, ap, bp []float64, acc *[16]float64) {
	gemm4x4AVX2(kc, ap[:kc*4:kc*4], bp[:kc*4:kc*4], acc)
}

//mttkrp:noalloc
func gemm12x4Vec(kc int, ap, bp []float64, acc *[48]float64) {
	gemm12x4AVX2(kc, ap[:kc*12:kc*12], bp[:kc*4:kc*4], acc)
}

//mttkrp:noalloc
func gemm12x4ColAVec(kc int, a []float64, lda int, ap, bp []float64, acc *[48]float64) {
	gemm12x4ColAAVX2(kc, a[:colALen(kc, lda)], lda, ap[:kc*12:kc*12], bp[:kc*4:kc*4], acc)
}

//mttkrp:noalloc
func gemm12x4RowAVec(kc int, a []float64, lda int, bp []float64, acc *[48]float64) {
	gemm12x4RowAAVX2(kc, a[:rowALen(kc, lda)], lda, bp[:kc*4:kc*4], acc)
}

//mttkrp:noalloc
func hadExpandVec(row, kl, out []float64) {
	if len(row) == 0 {
		return
	}
	hadExpandAVX2(row, kl, out[:len(kl)])
}

// Assembly kernels (kernels_amd64.s). Their element counts come from the
// same operand as the scalar references: len(x) for dot/axpy/add, len(z)
// for had and hadAxpy, len(kl) and len(row) for the expansion, kc (and
// lda for the in-place tiles) for the GEMM tiles.

//go:noescape
func dotAVX2(x, y []float64) float64

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func scaleAVX2(alpha float64, x []float64)

//go:noescape
func hadAVX2(x, y, z []float64)

//go:noescape
func hadAxpyAVX2(alpha float64, x, y, z []float64)

//go:noescape
func addAVX2(x, y []float64)

//go:noescape
func gemm4x4AVX2(kc int, ap, bp []float64, acc *[16]float64)

//go:noescape
func gemm12x4AVX2(kc int, ap, bp []float64, acc *[48]float64)

//go:noescape
func gemm12x4ColAAVX2(kc int, a []float64, lda int, ap, bp []float64, acc *[48]float64)

//go:noescape
func gemm12x4RowAAVX2(kc int, a []float64, lda int, bp []float64, acc *[48]float64)

//go:noescape
func hadExpandAVX2(row, kl, out []float64)

package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vectorOrSkip returns the vectorized implementation, skipping the test on
// hosts that have none (non-amd64 builds, amd64 without AVX2).
func vectorOrSkip(t *testing.T) *Impl {
	t.Helper()
	v := Vector()
	if v == nil {
		t.Skip("no vectorized kernel set on this host")
	}
	return v
}

// fill populates xs with a mix of magnitudes and signs that exposes
// rounding-order differences: products span many exponents, so any
// grouping or FMA divergence shows up in the low mantissa bits.
func fill(rng *rand.Rand, xs []float64) {
	for i := range xs {
		v := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(13)-6))
		if rng.Intn(64) == 0 {
			v = 0 // exercise ±0 and exact-zero products
		}
		if rng.Intn(97) == 0 {
			v = -v
		}
		xs[i] = v
	}
}

// sizes yields the sweep the bit-identity properties run over: every tail
// remainder 0–7 around the vector widths, plus larger blocks. With the
// random offsets applied by the callers this covers ~200 distinct
// (length, alignment) cases.
func sizes() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	for _, n := range []int{63, 64, 65, 127, 128, 129, 255, 256, 1000, 1023, 1024, 4096} {
		ns = append(ns, n, n+1, n+3, n+7)
	}
	return ns
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sliceBitsEq(t *testing.T, name string, n int, a, b []float64) {
	t.Helper()
	for i := range a {
		if !bitsEq(a[i], b[i]) {
			t.Fatalf("%s n=%d: element %d differs: scalar %x vector %x",
				name, n, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// TestKernelsBitIdentical is the dispatch-safety property: for every
// kernel, the vectorized implementation must reproduce the scalar
// reference bit for bit across random contents, every tail remainder, and
// unaligned starting offsets.
func TestKernelsBitIdentical(t *testing.T) {
	v := vectorOrSkip(t)
	s := Scalar()
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes() {
		off := rng.Intn(4) // misalign the slices relative to the allocation
		buf := func() []float64 {
			b := make([]float64, off+n)
			fill(rng, b)
			return b[off:]
		}
		x, y, z := buf(), buf(), buf()
		alpha := rng.NormFloat64()

		if got, want := v.Dot(x, y), s.Dot(x, y); !bitsEq(got, want) {
			t.Fatalf("Dot n=%d: scalar %x vector %x", n, math.Float64bits(want), math.Float64bits(got))
		}

		ys, yv := append([]float64(nil), y...), append([]float64(nil), y...)
		s.Axpy(alpha, x, ys)
		v.Axpy(alpha, x, yv)
		sliceBitsEq(t, "Axpy", n, ys, yv)

		xs, xv := append([]float64(nil), x...), append([]float64(nil), x...)
		s.Scale(alpha, xs)
		v.Scale(alpha, xv)
		sliceBitsEq(t, "Scale", n, xs, xv)

		zs, zv := append([]float64(nil), z...), append([]float64(nil), z...)
		s.Had(x, y, zs)
		v.Had(x, y, zv)
		sliceBitsEq(t, "Had", n, zs, zv)

		copy(ys, y)
		copy(yv, y)
		s.Add(x, ys)
		v.Add(x, yv)
		sliceBitsEq(t, "Add", n, ys, yv)

		copy(zs, z)
		copy(zv, z)
		s.HadAxpy(alpha, x, y, zs)
		v.HadAxpy(alpha, x, y, zv)
		sliceBitsEq(t, "HadAxpy", n, zs, zv)
	}

	// The packing column tile at the column strides of the served and
	// sweep GEMMs: its tile and its packed copy against the scalar
	// reference, and the copy against the A sliver it read. Both copies
	// start as different garbage, so an element the kernel skips shows.
	for _, lda := range []int{128, 1024, 3390} {
		buf := make([]float64, colALen(37, lda)+4)
		fill(rng, buf)
		for kc := 0; kc <= 37; kc++ {
			off := rng.Intn(4)
			a := buf[off : off+colALen(kc, lda)]
			bp := make([]float64, 4*kc)
			aps, apv := make([]float64, 12*kc), make([]float64, 12*kc)
			fill(rng, bp)
			fill(rng, aps)
			fill(rng, apv)
			var as, av [48]float64
			s.Gemm12x4ColA(kc, a, lda, aps, bp, &as)
			v.Gemm12x4ColA(kc, a, lda, apv, bp, &av)
			name := fmt.Sprintf("Gemm12x4ColA lda=%d", lda)
			sliceBitsEq(t, name+" tile", kc, as[:], av[:])
			sliceBitsEq(t, name+" packed copy", kc, aps, apv)
			for q := 0; q < kc; q++ {
				for r := 0; r < 12; r++ {
					if got, want := aps[(r/4)*4*kc+q*4+r%4], a[q*lda+r]; !bitsEq(got, want) {
						t.Fatalf("%s kc=%d: packed A(%d,%d) = %x, A sliver %x",
							name, kc, r, q, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// specials are the IEEE values HadAxpy's roundings must agree on beyond
// ordinary magnitudes: NaN, signed zeros and infinities, subnormals and
// the extremes whose products overflow or underflow. The NaN is the one
// the hardware makes for 0·∞, so every NaN in a sweep has the same bits:
// when two NaN operands meet, which payload survives follows the
// compiler's operand order, which Go leaves open (it differs under
// -race).
var specials = []float64{
	mulNoInline(0, math.Inf(1)), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1070, -0x1p-1030, 0x1p-540, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// mulNoInline multiplies at run time, where a constant product would be
// folded with the compiler's own NaN.
//
//go:noinline
func mulNoInline(a, b float64) float64 { return a * b }

// TestHadAxpyBitIdentical pins HadAxpy's roundings over lengths 0–37
// (every tail of both vector groups) with special values mixed into every
// operand and alpha: the vector kernel equals the scalar reference, and
// both equal Had into a buffer followed by Axpy, the two-call sequence
// the sparse kernel fused.
func TestHadAxpyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	mk := func(n int) []float64 {
		b := make([]float64, n)
		fill(rng, b)
		for i := range b {
			if rng.Intn(3) == 0 {
				b[i] = specials[rng.Intn(len(specials))]
			}
		}
		return b
	}
	for n := 0; n <= 37; n++ {
		for trial := 0; trial < 20; trial++ {
			x, y, z := mk(n), mk(n), mk(n)
			alpha := rng.NormFloat64()
			if trial%4 == 0 {
				alpha = specials[rng.Intn(len(specials))]
			}
			want := append([]float64(nil), z...)
			prod := make([]float64, n)
			Scalar().Had(x, y, prod)
			Scalar().Axpy(alpha, prod, want)
			for _, impl := range impls() {
				got := append([]float64(nil), z...)
				impl.HadAxpy(alpha, x, y, got)
				sliceBitsEq(t, "HadAxpy/"+impl.Name+" vs Had+Axpy", n, want, got)
			}
		}
	}
}

// TestKernelsAliasing pins the exact-aliasing contract the KRP row loops
// rely on (krp.Row computes out = out ∗ row in place): z == x and z == y
// must behave identically under both implementations.
func TestKernelsAliasing(t *testing.T) {
	v := vectorOrSkip(t)
	s := Scalar()
	rng := rand.New(rand.NewSource(11))
	for _, n := range sizes() {
		x := make([]float64, n)
		y := make([]float64, n)
		fill(rng, x)
		fill(rng, y)
		for _, mode := range []string{"z=x", "z=y"} {
			run := func(impl *Impl, f func(x, y, z []float64)) ([]float64, []float64) {
				xc := append([]float64(nil), x...)
				yc := append([]float64(nil), y...)
				if mode == "z=x" {
					f(xc, yc, xc)
				} else {
					f(xc, yc, yc)
				}
				return xc, yc
			}
			xs, ys := run(s, s.Had)
			xv, yv := run(v, v.Had)
			sliceBitsEq(t, "Had/"+mode, n, xs, xv)
			sliceBitsEq(t, "Had/"+mode, n, ys, yv)
		}

		// HadAxpy with z == x exactly: the sparse kernel's order-N chain
		// accumulates into a row it also reads.
		alpha := rng.NormFloat64()
		xs, xv := append([]float64(nil), x...), append([]float64(nil), x...)
		s.HadAxpy(alpha, xs, y, xs)
		v.HadAxpy(alpha, xv, y, xv)
		sliceBitsEq(t, "HadAxpy/z=x", n, xs, xv)
	}
}

// fmaChain is element (r, c) of a packed GEMM tile spelled out: one
// math.FMA per k step, in k order, from a zero accumulator. ap is the
// panel holding row r at lane r%4 of each 4-wide column group.
func fmaChain(kc int, ap, bp []float64, r, c int) float64 {
	s := 0.0
	for p := 0; p < kc; p++ {
		s = math.FMA(ap[p*4+r%4], bp[p*4+c], s)
	}
	return s
}

// TestGemm4x4BitIdentical sweeps the micro-kernel across k depths
// (including 0 and the non-multiple-of-anything cases), against the
// scalar reference and against each element's explicit FMA chain.
func TestGemm4x4BitIdentical(t *testing.T) {
	v := vectorOrSkip(t)
	s := Scalar()
	rng := rand.New(rand.NewSource(13))
	for kc := 0; kc <= 80; kc++ {
		ap := make([]float64, 4*kc)
		bp := make([]float64, 4*kc)
		fill(rng, ap)
		fill(rng, bp)
		var as, av [16]float64
		s.Gemm4x4(kc, ap, bp, &as)
		v.Gemm4x4(kc, ap, bp, &av)
		for i := range as {
			if !bitsEq(as[i], av[i]) {
				t.Fatalf("Gemm4x4 kc=%d: acc[%d] scalar %x vector %x",
					kc, i, math.Float64bits(as[i]), math.Float64bits(av[i]))
			}
			if want := fmaChain(kc, ap, bp, i/4, i%4); !bitsEq(as[i], want) {
				t.Fatalf("Gemm4x4 kc=%d: acc[%d] = %x, FMA chain %x",
					kc, i, math.Float64bits(as[i]), math.Float64bits(want))
			}
		}
	}
}

// TestGemm12x4BitIdentical is the same sweep for the three-panel tile,
// across the blocked GEMM's KC boundary too: scalar against vector, and
// every element of the column-major tile against its explicit FMA chain,
// which is also what Gemm4x4 computes for that element.
func TestGemm12x4BitIdentical(t *testing.T) {
	v := vectorOrSkip(t)
	s := Scalar()
	rng := rand.New(rand.NewSource(23))
	kcs := []int{255, 256, 257}
	for kc := 0; kc <= 80; kc++ {
		kcs = append(kcs, kc)
	}
	for _, kc := range kcs {
		ap := make([]float64, 12*kc)
		bp := make([]float64, 4*kc)
		fill(rng, ap)
		fill(rng, bp)
		var as, av [48]float64
		s.Gemm12x4(kc, ap, bp, &as)
		v.Gemm12x4(kc, ap, bp, &av)
		for i := range as {
			if !bitsEq(as[i], av[i]) {
				t.Fatalf("Gemm12x4 kc=%d: acc[%d] scalar %x vector %x",
					kc, i, math.Float64bits(as[i]), math.Float64bits(av[i]))
			}
			r, c := i%12, i/12
			if want := fmaChain(kc, ap[(r/4)*4*kc:], bp, r, c); !bitsEq(as[i], want) {
				t.Fatalf("Gemm12x4 kc=%d: C(%d,%d) = %x, FMA chain %x",
					kc, r, c, math.Float64bits(as[i]), math.Float64bits(want))
			}
		}
	}
}

// inPlaceTile describes one of the in-place 12×4 tiles for
// testInPlaceTile: its entry point, how many elements of a it reads, where
// A(r, q) lives in a, and where C(r, c) lives in the tile.
type inPlaceTile struct {
	name string
	fn   func(impl *Impl) func(kc int, a []float64, lda int, bp []float64, acc *[48]float64)
	alen func(kc, lda int) int
	at   func(a []float64, lda, r, q int) float64
	tile func(r, c int) int
}

// testInPlaceTile sweeps an in-place tile over k depths 0–80 and across
// the blocked GEMM's KC boundary (255–257), over strides from the
// tightest to cp-fmri's 3390 and unaligned bases: scalar against vector,
// and every tile element against its explicit FMA chain, which is also
// what the packed tiles compute for that element.
func testInPlaceTile(t *testing.T, tc inPlaceTile) {
	v := vectorOrSkip(t)
	s := Scalar()
	rng := rand.New(rand.NewSource(29))
	kcs := []int{255, 256, 257}
	for kc := 0; kc <= 80; kc++ {
		kcs = append(kcs, kc)
	}
	for _, lda := range []int{12, 13, 113, 3390} {
		buf := make([]float64, tc.alen(257, lda)+4)
		fill(rng, buf)
		for _, kc := range kcs {
			off := rng.Intn(4)
			a := buf[off : off+tc.alen(kc, lda)]
			bp := make([]float64, 4*kc)
			fill(rng, bp)
			var as, av [48]float64
			tc.fn(s)(kc, a, lda, bp, &as)
			tc.fn(v)(kc, a, lda, bp, &av)
			for r := 0; r < 12; r++ {
				for c := 0; c < 4; c++ {
					i := tc.tile(r, c)
					if !bitsEq(as[i], av[i]) {
						t.Fatalf("%s kc=%d lda=%d off=%d: C(%d,%d) scalar %x vector %x",
							tc.name, kc, lda, off, r, c, math.Float64bits(as[i]), math.Float64bits(av[i]))
					}
					want := 0.0
					for q := 0; q < kc; q++ {
						want = math.FMA(tc.at(a, lda, r, q), bp[q*4+c], want)
					}
					if !bitsEq(as[i], want) {
						t.Fatalf("%s kc=%d lda=%d off=%d: C(%d,%d) = %x, FMA chain %x",
							tc.name, kc, lda, off, r, c, math.Float64bits(as[i]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestGemm12x4ColABitIdentical pins the in-place tile over a column-major
// A (A(r, q) at a[q*lda+r], column-major tile).
func TestGemm12x4ColABitIdentical(t *testing.T) {
	testInPlaceTile(t, inPlaceTile{
		name: "Gemm12x4ColA",
		fn: func(impl *Impl) func(int, []float64, int, []float64, *[48]float64) {
			return func(kc int, a []float64, lda int, bp []float64, acc *[48]float64) {
				impl.Gemm12x4ColA(kc, a, lda, make([]float64, 12*kc), bp, acc)
			}
		},
		alen: colALen,
		at:   func(a []float64, lda, r, q int) float64 { return a[q*lda+r] },
		tile: func(r, c int) int { return c*12 + r },
	})
}

// TestGemm12x4RowABitIdentical pins the in-place tile over a row-major A
// (A(r, q) at a[r*lda+q], row-major tile). Strides below kc make the row
// streams overlap, which a read-only kernel must tolerate.
func TestGemm12x4RowABitIdentical(t *testing.T) {
	testInPlaceTile(t, inPlaceTile{
		name: "Gemm12x4RowA",
		fn: func(impl *Impl) func(int, []float64, int, []float64, *[48]float64) {
			return impl.Gemm12x4RowA
		},
		alen: rowALen,
		at:   func(a []float64, lda, r, q int) float64 { return a[r*lda+q] },
		tile: func(r, c int) int { return r*4 + c },
	})
}

// TestKernelsShortOperandsPanic pins the length contract: a kernel handed
// an operand shorter than its reference requires must panic, with the
// same runtime error under every implementation. Each short operand is a
// capacity-limited prefix of a longer buffer, so an unchecked kernel runs
// into memory the test owns and the failure reads "did not panic" rather
// than corrupting the heap.
func TestKernelsShortOperandsPanic(t *testing.T) {
	const n, kc, lda = 8, 8, 13
	short := func(m int) []float64 { b := make([]float64, 2*m); return b[: m-1 : m-1] }
	full := func(m int) []float64 { return make([]float64, m) }
	var acc4 [16]float64
	var acc12 [48]float64
	cases := []struct {
		name string
		call func(impl *Impl)
	}{
		{"Dot/y", func(impl *Impl) { impl.Dot(full(n), short(n)) }},
		{"Axpy/y", func(impl *Impl) { impl.Axpy(2, full(n), short(n)) }},
		{"Had/x", func(impl *Impl) { impl.Had(short(n), full(n), full(n)) }},
		{"Had/y", func(impl *Impl) { impl.Had(full(n), short(n), full(n)) }},
		{"HadAxpy/x", func(impl *Impl) { impl.HadAxpy(2, short(n), full(n), full(n)) }},
		{"HadAxpy/y", func(impl *Impl) { impl.HadAxpy(2, full(n), short(n), full(n)) }},
		{"Add/y", func(impl *Impl) { impl.Add(full(n), short(n)) }},
		{"HadExpand/out", func(impl *Impl) { impl.HadExpand(full(4), full(4*n), short(4*n)) }},
		{"Gemm4x4/ap", func(impl *Impl) { impl.Gemm4x4(kc, short(4*kc), full(4*kc), &acc4) }},
		{"Gemm4x4/bp", func(impl *Impl) { impl.Gemm4x4(kc, full(4*kc), short(4*kc), &acc4) }},
		{"Gemm12x4/ap", func(impl *Impl) { impl.Gemm12x4(kc, short(12*kc), full(4*kc), &acc12) }},
		{"Gemm12x4/bp", func(impl *Impl) { impl.Gemm12x4(kc, full(12*kc), short(4*kc), &acc12) }},
		{"Gemm12x4ColA/a", func(impl *Impl) {
			impl.Gemm12x4ColA(kc, short(colALen(kc, lda)), lda, full(12*kc), full(4*kc), &acc12)
		}},
		{"Gemm12x4ColA/ap", func(impl *Impl) {
			impl.Gemm12x4ColA(kc, full(colALen(kc, lda)), lda, short(12*kc), full(4*kc), &acc12)
		}},
		{"Gemm12x4ColA/bp", func(impl *Impl) {
			impl.Gemm12x4ColA(kc, full(colALen(kc, lda)), lda, full(12*kc), short(4*kc), &acc12)
		}},
		{"Gemm12x4RowA/a", func(impl *Impl) { impl.Gemm12x4RowA(kc, short(rowALen(kc, lda)), lda, full(4*kc), &acc12) }},
		{"Gemm12x4RowA/bp", func(impl *Impl) { impl.Gemm12x4RowA(kc, full(rowALen(kc, lda)), lda, short(4*kc), &acc12) }},
	}
	panicOf := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, tc := range cases {
		want := panicOf(func() { tc.call(Scalar()) })
		if want == "" {
			t.Errorf("scalar %s: short operand did not panic", tc.name)
			continue
		}
		for _, impl := range impls()[1:] {
			if got := panicOf(func() { tc.call(impl) }); got != want {
				t.Errorf("%s %s: panic %q, scalar reference panics %q", impl.Name, tc.name, got, want)
			}
		}
	}
}

// TestHadExpandBitIdentical covers the internal-mode KRP block expansion,
// including widths with every tail remainder, zero rows/columns, a kl
// buffer that is not a whole number of rows (the scalar reference stops at
// the last full row), and out aliasing kl.
func TestHadExpandBitIdentical(t *testing.T) {
	v := vectorOrSkip(t)
	s := Scalar()
	rng := rand.New(rand.NewSource(17))
	for _, c := range []int{0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 31, 32} {
		for _, rows := range []int{0, 1, 2, 3, 7, 16} {
			row := make([]float64, c)
			kl := make([]float64, rows*c)
			fill(rng, row)
			fill(rng, kl)

			os, ov := make([]float64, rows*c), make([]float64, rows*c)
			fill(rng, os)
			copy(ov, os)
			s.HadExpand(row, kl, os)
			v.HadExpand(row, kl, ov)
			sliceBitsEq(t, "HadExpand", rows*c, os, ov)

			// Ragged kl: one row plus a partial tail must stop identically.
			if c > 1 && rows > 0 {
				ragged := kl[: rows*c-1 : rows*c-1]
				rs := append([]float64(nil), os...)
				rv := append([]float64(nil), ov...)
				s.HadExpand(row, ragged, rs)
				v.HadExpand(row, ragged, rv)
				sliceBitsEq(t, "HadExpand/ragged", rows*c-1, rs, rv)
			}

			// out == kl exact aliasing.
			ks := append([]float64(nil), kl...)
			kv := append([]float64(nil), kl...)
			s.HadExpand(row, ks, ks)
			v.HadExpand(row, kv, kv)
			sliceBitsEq(t, "HadExpand/alias", rows*c, ks, kv)
		}
	}
}

// TestDispatchSwap pins the Use/Active contract the serving A/B flags and
// the MTTKRP_NOSIMD override rely on: swapping implementations changes the
// package-level entry points, and results stay bit-identical across the
// swap.
func TestDispatchSwap(t *testing.T) {
	prev := Active()
	defer Use(prev)

	rng := rand.New(rand.NewSource(19))
	x := make([]float64, 257)
	y := make([]float64, 257)
	fill(rng, x)
	fill(rng, y)

	Use(Scalar())
	if Active().Name != "scalar" {
		t.Fatalf("Active after Use(Scalar()) = %q", Active().Name)
	}
	ds := Dot(x, y)

	if v := Vector(); v != nil {
		Use(v)
		if Active().Name != v.Name {
			t.Fatalf("Active after Use(Vector()) = %q", Active().Name)
		}
		if dv := Dot(x, y); !bitsEq(ds, dv) {
			t.Fatalf("dispatched Dot differs across Use: scalar %x vector %x",
				math.Float64bits(ds), math.Float64bits(dv))
		}
	}
}

// TestNoSIMDEnv pins the MTTKRP_NOSIMD parse rule: empty and "0" keep
// vector dispatch, anything else disables it.
func TestNoSIMDEnv(t *testing.T) {
	cases := map[string]bool{"": false, "0": false, "1": true, "true": true, "off": true, " ": true}
	for v, want := range cases {
		if got := noSIMDEnv(v); got != want {
			t.Errorf("noSIMDEnv(%q) = %v, want %v", v, got, want)
		}
	}
}

// TestBestRespectsEnv ensures MTTKRP_NOSIMD forces the scalar set even on
// vector-capable hosts.
func TestBestRespectsEnv(t *testing.T) {
	t.Setenv("MTTKRP_NOSIMD", "1")
	if got := Best(); got != Scalar() {
		t.Fatalf("Best with MTTKRP_NOSIMD=1 = %q, want scalar", got.Name)
	}
	t.Setenv("MTTKRP_NOSIMD", "0")
	if v := Vector(); v != nil {
		if got := Best(); got != v {
			t.Fatalf("Best with MTTKRP_NOSIMD=0 = %q, want %q", got.Name, v.Name)
		}
	}
}

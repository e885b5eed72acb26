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
		if got, want := v.SumAbs(x), s.SumAbs(x); !bitsEq(got, want) {
			t.Fatalf("SumAbs n=%d: scalar %x vector %x", n, math.Float64bits(want), math.Float64bits(got))
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

		copy(zs, z)
		copy(zv, z)
		s.HadAcc(x, y, zs)
		v.HadAcc(x, y, zv)
		sliceBitsEq(t, "HadAcc", n, zs, zv)

		copy(ys, y)
		copy(yv, y)
		s.Add(x, ys)
		v.Add(x, yv)
		sliceBitsEq(t, "Add", n, ys, yv)
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

			xs, ys = run(s, s.HadAcc)
			xv, yv = run(v, v.HadAcc)
			sliceBitsEq(t, "HadAcc/"+mode, n, xs, xv)
			sliceBitsEq(t, "HadAcc/"+mode, n, ys, yv)
		}
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

// TestKernelsShortOperandsPanic pins the length contract: a kernel handed
// an operand shorter than its reference requires must panic, with the
// same runtime error under every implementation. Each short operand is a
// capacity-limited prefix of a longer buffer, so an unchecked kernel runs
// into memory the test owns and the failure reads "did not panic" rather
// than corrupting the heap.
func TestKernelsShortOperandsPanic(t *testing.T) {
	const n, kc = 8, 8
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
		{"HadAcc/x", func(impl *Impl) { impl.HadAcc(short(n), full(n), full(n)) }},
		{"HadAcc/y", func(impl *Impl) { impl.HadAcc(full(n), short(n), full(n)) }},
		{"Add/y", func(impl *Impl) { impl.Add(full(n), short(n)) }},
		{"HadExpand/out", func(impl *Impl) { impl.HadExpand(full(4), full(4*n), short(4*n)) }},
		{"Gemm4x4/ap", func(impl *Impl) { impl.Gemm4x4(kc, short(4*kc), full(4*kc), &acc4) }},
		{"Gemm4x4/bp", func(impl *Impl) { impl.Gemm4x4(kc, full(4*kc), short(4*kc), &acc4) }},
		{"Gemm12x4/ap", func(impl *Impl) { impl.Gemm12x4(kc, short(12*kc), full(4*kc), &acc12) }},
		{"Gemm12x4/bp", func(impl *Impl) { impl.Gemm12x4(kc, full(12*kc), short(4*kc), &acc12) }},
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

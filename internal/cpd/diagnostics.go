package cpd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/blas"
	"repro/internal/la"
	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// Corcondia computes the core consistency diagnostic (Bro & Kiers) of a
// fitted CP model: the Tucker core G = X ×₀ U₀† ⋯ ×_{N-1} U_{N-1}† is
// compared against the ideal superdiagonal core. 100 means the CP
// structure explains the interactions perfectly; values well below 100
// (or negative) indicate an over-factored or invalid model. The model's
// weights are distributed evenly across modes before inversion.
func Corcondia(t int, x *tensor.Dense, k *KTensor) float64 {
	n := x.Order()
	if k.Order() != n {
		panic(fmt.Sprintf("cpd: corcondia order mismatch: tensor %d, model %d", n, k.Order()))
	}
	c := k.Rank()
	// Distribute λ^(1/N) into each mode's factor copy.
	scaled := make([]mat.View, n)
	for m := 0; m < n; m++ {
		scaled[m] = k.Factors[m].Clone()
	}
	for comp := 0; comp < c; comp++ {
		w := k.Lambda[comp]
		if w < 0 {
			// Push the sign into the first mode, magnitude everywhere.
			blas.Scal(-1, scaled[0].Col(comp))
			w = -w
		}
		root := rootN(w, n)
		for m := 0; m < n; m++ {
			blas.Scal(root, scaled[m].Col(comp))
		}
	}
	// Mode-wise pseudo-inverses: the TTM operand is (U†)ᵀ = U·(UᵀU)†.
	ms := make([]mat.View, n)
	for m := 0; m < n; m++ {
		u := scaled[m]
		h := mat.NewDense(c, c)
		blas.Gemm(t, 1, u.T(), u, 0, h)
		ms[m] = la.PinvSolveGram(h, u.Clone())
	}
	g := ttm.Chain(nil, t, x, ms) // C × C × … × C core
	// Compare against the superdiagonal identity.
	idx := make([]int, n)
	num := 0.0
	for l, v := range g.Data() {
		g.MultiIndex(l, idx)
		want := 0.0
		if allEqual(idx) {
			want = 1
		}
		d := v - want
		num += d * d
	}
	return 100 * (1 - num/float64(c))
}

func allEqual(idx []int) bool {
	for _, i := range idx[1:] {
		if i != idx[0] {
			return false
		}
	}
	return true
}

func rootN(x float64, n int) float64 {
	switch {
	case x == 0:
		return 0
	case n == 1:
		return x
	case n == 2:
		return math.Sqrt(x)
	default:
		return math.Pow(x, 1/float64(n))
	}
}

// NVecs computes the rank-c leading eigenvector initialization of mode n
// (the Tensor Toolbox 'nvecs' option): the top c eigenvectors of
// X_(n)·X_(n)ᵀ, computed without reordering tensor entries by accumulating
// Gram contributions over the mode's row-major blocks. If c exceeds I_n,
// the remaining columns are filled with random values.
func NVecs(t int, x *tensor.Dense, n, c int, rng *rand.Rand) mat.View {
	in := x.Dim(n)
	g := mat.NewDense(in, in)
	for j := 0; j < x.NumModeBlocks(n); j++ {
		blk := x.ModeBlock(n, j)
		blas.Gemm(t, 1, blk, blk.T(), 1, g)
	}
	w, v := la.JacobiEigen(g)
	order := make([]int, in)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	out := mat.NewDense(in, c)
	for col := 0; col < c; col++ {
		if col < in {
			blas.CopyVec(v.Col(order[col]), out.Col(col))
			continue
		}
		for i := 0; i < in; i++ {
			out.Set(i, col, rng.Float64())
		}
	}
	return out
}

// NVecsInit builds a full initial KTensor from per-mode NVecs.
func NVecsInit(t int, x *tensor.Dense, c int, seed int64) *KTensor {
	rng := rand.New(rand.NewSource(seed))
	factors := make([]mat.View, x.Order())
	for n := 0; n < x.Order(); n++ {
		factors[n] = NVecs(t, x, n, c, rng)
	}
	lambda := make([]float64, c)
	for i := range lambda {
		lambda[i] = 1
	}
	return NewKTensor(lambda, factors)
}

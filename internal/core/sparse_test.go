package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestSparseMatchesDensifiedReference is the sparse kernel's property
// suite: ~100 random (shape, density, mode, threads) cases, each checked
// against the naive dense reference over the densified tensor. Densities
// span near-empty through half-full so both the skewed-slice and
// empty-slice paths are exercised.
func TestSparseMatchesDensifiedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	densities := []float64{0.001, 0.01, 0.05, 0.2, 0.5}
	shapes := [][]int{
		{7, 5}, {9, 13}, {12, 9, 8}, {6, 11, 4}, {8, 6, 7}, {5, 5, 5, 5}, {3, 4, 5, 2, 3},
	}
	cases := 0
	for _, dims := range shapes {
		for _, density := range densities {
			x := tensor.RandomSparse(rng, density, dims...)
			xd := x.Densify()
			rank := 1 + rng.Intn(8)
			u := make([]mat.View, len(dims))
			for k := range u {
				u[k] = mat.RandomDense(dims[k], rank, rng)
			}
			for mode := 0; mode < len(dims); mode++ {
				threads := 1 + rng.Intn(4)
				cases++
				name := fmt.Sprintf("%v-d%g-n%d-t%d", dims, density, mode, threads)
				t.Run(name, func(t *testing.T) {
					got := SparseCompute(x, u, mode, Options{Threads: threads})
					want := Naive(xd, u, mode)
					for i := 0; i < want.R; i++ {
						for j := 0; j < want.C; j++ {
							if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-10 {
								t.Fatalf("(%d,%d): got %g, want %g", i, j, got.At(i, j), want.At(i, j))
							}
						}
					}
				})
			}
		}
	}
	if cases < 100 {
		t.Fatalf("property suite ran %d cases, want >= 100", cases)
	}
}

// TestSparseRequestRun checks the Request dispatcher's sparse paths: the
// kernel path and the MethodNaive densified-reference path agree.
func TestSparseRequestRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandomSparse(rng, 0.05, 20, 15, 10)
	u := make([]mat.View, 3)
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), 6, rng)
	}
	got := Run(Request{X: x, Factors: u, Mode: 1})
	ref := Run(Request{X: x, Factors: u, Mode: 1, Method: MethodNaive})
	for i := 0; i < ref.R; i++ {
		for j := 0; j < ref.C; j++ {
			if math.Abs(got.At(i, j)-ref.At(i, j)) > 1e-10 {
				t.Fatalf("(%d,%d): kernel %g, naive %g", i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}
}

// TestSparseZeroAndSkew covers the degenerate schedules: an empty tensor,
// fewer entries than workers, and a fully skewed tensor whose entries all
// share one output row (a single slice split across every worker).
func TestSparseZeroAndSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dims := []int{6, 5, 4}
	u := make([]mat.View, 3)
	for k := range u {
		u[k] = mat.RandomDense(dims[k], 3, rng)
	}

	empty, err := tensor.SparseFromCOO(dims, [][]int32{{}, {}, {}}, []float64{})
	if err != nil {
		t.Fatal(err)
	}
	m := SparseCompute(empty, u, 0, Options{Threads: 4})
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("empty tensor produced nonzero at (%d,%d)", i, j)
			}
		}
	}

	// All entries on mode-0 row 2: one slice, split across all workers.
	n := 20
	idx := [][]int32{make([]int32, n), make([]int32, n), make([]int32, n)}
	vals := make([]float64, n)
	for p := 0; p < n; p++ {
		idx[0][p] = 2
		idx[1][p] = int32(p % dims[1])
		idx[2][p] = int32(p % dims[2])
		vals[p] = rng.Float64()
	}
	skew, err := tensor.SparseFromCOO(dims, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	got := SparseCompute(skew, u, 0, Options{Threads: 4})
	want := Naive(skew.Densify(), u, 0)
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-10 {
				t.Fatalf("skew (%d,%d): got %g, want %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// sparseCOORef is the sparse kernel's rounding spelled out: each worker
// of t takes its even share of the entries (parallel.BlockRange) and adds
// every entry's product into its own copy of the output row in COO order
// — the product built left to right over the modes k ≠ n, scaled by the
// value, then added — and the shares are summed in worker order, the
// reduce's order. At t = 1 it is one pass over the entries in COO order.
func sparseCOORef(x *tensor.Sparse, u []mat.View, n, t int) mat.View {
	c := u[0].C
	nnz := int(x.NNZ())
	out := mat.NewDense(x.Dim(n), c)
	share := mat.NewDense(x.Dim(n), c)
	prod := make([]float64, c)
	for w := 0; w < t; w++ {
		clear(share.Data)
		lo, hi := parallel.BlockRange(nnz, t, w)
		for p := lo; p < hi; p++ {
			first := true
			for k := range u {
				if k == n {
					continue
				}
				row := u[k].ContiguousRow(int(x.Index(k)[p]))
				for j := range prod {
					if first {
						prod[j] = row[j]
					} else {
						prod[j] *= row[j]
					}
				}
				first = false
			}
			i := int(x.Index(n)[p])
			for j, v := range prod {
				share.Data[i*c+j] += x.Values()[p] * v
			}
		}
		for j, v := range share.Data {
			out.Data[j] += v
		}
	}
	return out
}

// TestSparseBitIdentical pins the sparse kernel's bits to sparseCOORef:
// every mode of an order-3 and an order-4 tensor at Threads 1, where the
// reference is one pass in COO order, and mode 0 at widths 1–4, whose
// output rows are contiguous runs of the COO order. Ranks 11 and 16
// cover the vector kernels' tails.
func TestSparseBitIdentical(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		dims []int
		c    int
	}{
		{[]int{13, 11, 9}, 11},
		{[]int{7, 6, 5, 8}, 16},
	} {
		x := tensor.RandomSparse(rng, 0.3, tc.dims...)
		u := make([]mat.View, len(tc.dims))
		for k, d := range tc.dims {
			u[k] = mat.RandomDense(d, tc.c, rng)
		}
		for mode := range tc.dims {
			widths := []int{1}
			if mode == 0 {
				widths = []int{1, 2, 3, 4}
			}
			for _, threads := range widths {
				got := SparseComputeInto(mat.NewDense(x.Dim(mode), tc.c), x, u, mode, Options{Threads: threads, Pool: pool})
				bitsEqual(t, got, sparseCOORef(x, u, mode, threads),
					fmt.Sprintf("dims %v mode %d Threads %d", tc.dims, mode, threads))
			}
		}
	}
}

// TestSparseSteadyStateAllocFree pins the sparse kernel's steady-state
// guarantee: with a retained dst and a persistent pool, repeated
// same-shape calls allocate nothing.
func TestSparseSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandomSparse(rng, 0.02, 60, 50, 40)
	u := make([]mat.View, 3)
	for k := 0; k < 3; k++ {
		u[k] = mat.RandomDense(x.Dim(k), 16, rng)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for mode := 0; mode < 3; mode++ {
		dst := mat.NewDense(x.Dim(mode), 16)
		opts := Options{Threads: 4, Pool: pool}
		SparseComputeInto(dst, x, u, mode, opts) // warmup: grows the workspace arenas
		SparseComputeInto(dst, x, u, mode, opts)
		allocs := testing.AllocsPerRun(20, func() {
			SparseComputeInto(dst, x, u, mode, opts)
		})
		t.Logf("mode %d: %.1f allocs/op", mode, allocs)
		if allocs > 0 {
			t.Errorf("mode %d: %v allocs/op, want 0", mode, allocs)
		}
	}
}

// BenchmarkSparseMTTKRP measures the sparse kernel at serving-relevant
// densities (artifacted by the CI bench job): mode 1 on a built tensor,
// and a one-shot row that copies the COO slabs into retained buffers,
// builds the tensor with SparseFromCOO and runs mode 1 once, which is what
// a served request pays after its decode.
func BenchmarkSparseMTTKRP(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, density := range []float64{0.001, 0.01, 0.1} {
		x := tensor.RandomSparse(rng, density, 200, 150, 100)
		u := make([]mat.View, 3)
		for k := 0; k < 3; k++ {
			u[k] = mat.RandomDense(x.Dim(k), 16, rng)
		}
		pool := parallel.NewPool(4)
		dst := mat.NewDense(x.Dim(1), 16)
		opts := Options{Threads: 4, Pool: pool}
		SparseComputeInto(dst, x, u, 1, opts) // warm the workspace arenas
		b.Run(fmt.Sprintf("density=%g", density), func(b *testing.B) {
			b.SetBytes(8 * x.NNZ())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SparseComputeInto(dst, x, u, 1, opts)
			}
		})
		idx := make([][]int32, 3)
		for k := range idx {
			idx[k] = make([]int32, x.NNZ())
		}
		vals := make([]float64, x.NNZ())
		b.Run(fmt.Sprintf("oneshot/density=%g", density), func(b *testing.B) {
			b.SetBytes(8 * x.NNZ())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := range idx {
					copy(idx[k], x.Index(k))
				}
				copy(vals, x.Values())
				y, err := tensor.SparseFromCOO(x.Dims(), idx, vals)
				if err != nil {
					b.Fatal(err)
				}
				SparseComputeInto(dst, y, u, 1, opts)
			}
		})
		pool.Close()
	}
}

package bench

import (
	"math"
	"math/rand"

	"repro/internal/fmri"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// paperEntries is the entry count of the paper's Figure 5 and 6 tensors:
// 900³, 165⁴, 60⁵ and 30⁶ each hold about 750M entries.
const paperEntries = 750e6

// EqualDimsProblem builds the Figures 5 and 6 problem of one order: a
// random tensor with order equal dimensions whose product approximates
// entries (each dimension at least 2), and one random factor of rank
// columns per mode, all drawn from one generator seeded by the order. The
// drivers pass the paper's entry count times Config.Scale; the go-test
// benchmarks pass a fixed count.
func EqualDimsProblem(order int, entries float64, rank int) (*tensor.Dense, []mat.View) {
	dims := equalDims(order, entries)
	rng := rand.New(rand.NewSource(int64(order)))
	x := tensor.Random(rng, dims...)
	u := make([]mat.View, order)
	for k, d := range dims {
		u[k] = mat.RandomDense(d, rank, rng)
	}
	return x, u
}

// equalDims returns n equal dimensions whose product approximates
// entries, each at least 2.
func equalDims(n int, entries float64) []int {
	d := max(2, int(math.Round(math.Pow(entries, 1/float64(n)))))
	dims := make([]int, n)
	for i := range dims {
		dims[i] = d
	}
	return dims
}

// fmriTensor is one of the application tensors of Figures 7 and 8.
type fmriTensor struct {
	name string
	x    *tensor.Dense
}

// fmriTensors builds the Figures 7 and 8 tensors: the 4-way fMRI-shaped
// tensor, its linear dimensions shrunk by scale^(1/4) so the entry count
// scales like the other figures', and its 3-way linearization.
func fmriTensors(scale float64) []fmriTensor {
	p := fmri.PaperParams().Scaled(math.Pow(scale, 0.25))
	p.Seed = 99
	ds := fmri.GenerateOn(nil, p)
	return []fmriTensor{{"3D", ds.Linearize3()}, {"4D", ds.Tensor4}}
}

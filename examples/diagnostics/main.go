// Model selection and the sweep-sharing extension: use the CORCONDIA core
// consistency diagnostic to find the right CP rank, compare random vs
// eigenvector (nvecs) initialization, and measure the per-sweep saving of
// the default dimension-tree sweep (the paper's Section 6 "natural next
// step") over the paper's per-mode hybrid.
//
//	go run ./examples/diagnostics
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/tensor"
)

func main() {
	// Ground truth: a rank-3 tensor plus noise.
	rng := rand.New(rand.NewSource(5))
	trueRank := 3
	truth := cpd.RandomKTensor(rng, []int{40, 35, 30}, trueRank)
	x := truth.Full()
	data := x.Data()
	rms := rmsOf(x)
	for i := range data {
		data[i] += 0.02 * rms * rng.NormFloat64()
	}

	// Rank selection: sweep candidate ranks, report fit and CORCONDIA.
	// Fit always increases with rank; core consistency collapses once the
	// model is over-factored, pointing at the true rank.
	fmt.Println("rank  fit      corcondia")
	for rank := 1; rank <= 5; rank++ {
		res, err := cpd.ALS(x, cpd.Config{Rank: rank, MaxIters: 150, Tol: 1e-9, Seed: 2})
		if err != nil {
			log.Fatal(err)
		}
		cc := cpd.Corcondia(0, x, res.K)
		ccStr := fmt.Sprintf("%9.1f", cc)
		if cc < -100 {
			// Overfactored models drive the pseudo-inverse core to huge
			// negative consistency; the magnitude carries no information.
			ccStr = "collapsed"
		}
		marker := ""
		if rank == trueRank {
			marker = "   <- planted rank"
		}
		fmt.Printf("%4d  %.4f  %9s%s\n", rank, res.Fit, ccStr, marker)
	}

	// Initialization: nvecs (leading eigenvectors of X_(n)X_(n)ᵀ) gives a
	// deterministic, often better-conditioned start than a random draw.
	nvecs := cpd.NVecsInit(0, x, trueRank, 1)
	a, err := cpd.ALS(x, cpd.Config{Rank: trueRank, MaxIters: 500, Tol: 1e-9, Init: nvecs})
	if err != nil {
		log.Fatal(err)
	}
	b, err := cpd.ALS(x, cpd.Config{Rank: trueRank, MaxIters: 500, Tol: 1e-9, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninit comparison at rank %d: nvecs %d sweeps (fit %.5f), random %d sweeps (fit %.5f)\n",
		trueRank, a.Iters, a.Fit, b.Iters, b.Fit)

	// The default dimension-tree sweep against the paper's per-mode
	// hybrid: identical math, two passes over the tensor per sweep
	// instead of one per mode.
	big := tensor.Random(rng, 96, 64, 48, 32)
	perMode, err := cpd.ALS(big, cpd.Config{Rank: 10, MaxIters: 3, Tol: -1, Seed: 4, Method: core.MethodTwoStep})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := cpd.ALS(big, cpd.Config{Rank: 10, MaxIters: 3, Tol: -1, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndimension-tree sweep on %v: per-sweep %.0fms (2-step per mode) -> %.0fms (%.2fx), fit %.6f vs %.6f\n",
		big.Dims(),
		perMode.MeanIterTime().Seconds()*1e3, tree.MeanIterTime().Seconds()*1e3,
		perMode.MeanIterTime().Seconds()/tree.MeanIterTime().Seconds(),
		perMode.Fit, tree.Fit)
}

func rmsOf(x *tensor.Dense) float64 {
	return x.Norm(nil, 0) / float64(x.Size())
}

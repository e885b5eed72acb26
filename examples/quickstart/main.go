// Quickstart: build a dense tensor, compute a CP decomposition with the
// library's default sweep (two tensor passes per sweep, sharing partial
// MTTKRPs across modes), and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// A 60×50×40 tensor that is exactly rank 5 plus a little noise: the
	// ground truth is a random Kruskal model.
	rng := rand.New(rand.NewSource(7))
	dims := []int{60, 50, 40}
	rank := 5

	truth := make([]repro.Matrix, len(dims))
	for k, d := range dims {
		truth[k] = repro.RandomMatrix(d, rank, rng)
	}
	x := repro.NewTensor(dims...)
	fillFromModel(x, truth)
	addNoise(x, 0.01, rng)

	// Decompose. MethodAuto is the paper's choice: 1-step MTTKRP for the
	// first and last modes, 2-step for internal modes.
	res, err := repro.CP(x, repro.CPConfig{
		Rank:     rank,
		MaxIters: 100,
		Tol:      1e-8,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tensor %v, rank %d\n", dims, rank)
	fmt.Printf("fit = %.4f after %d ALS sweeps (%.1fms per sweep)\n",
		res.Fit, res.Iters, res.MeanIterTime().Seconds()*1e3)
	res.K.Normalize() // absorb column scales into the weights
	res.K.Arrange()   // sort components by weight
	fmt.Println("component weights:")
	for i, l := range res.K.Lambda {
		fmt.Printf("  λ[%d] = %8.2f\n", i, l)
	}

	// The factors are ordinary row-major matrices.
	u0 := res.K.Factors[0]
	fmt.Printf("mode-0 factor is %d×%d; U0(0, :) = ", u0.R, u0.C)
	for c := 0; c < u0.C; c++ {
		fmt.Printf("% .3f ", u0.At(0, c))
	}
	fmt.Println()
}

// fillFromModel evaluates the rank-R model into x.
func fillFromModel(x *repro.Dense, u []repro.Matrix) {
	idx := make([]int, x.Order())
	data := x.Data()
	for l := range data {
		x.MultiIndex(l, idx)
		s := 0.0
		for c := 0; c < u[0].C; c++ {
			p := 1.0
			for k := range u {
				p *= u[k].At(idx[k], c)
			}
			s += p
		}
		data[l] = s
	}
}

func addNoise(x *repro.Dense, level float64, rng *rand.Rand) {
	data := x.Data()
	for i := range data {
		data[i] += level * rng.NormFloat64()
	}
}

// fMRI pipeline: the paper's motivating application (Section 3). Generate
// a synthetic time × subject × region × region correlation tensor with
// planted brain networks, decompose both the 4-way tensor and its
// symmetry-reduced 3-way pairs form, and check that the planted networks
// are recovered.
//
//	go run ./examples/fmri
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/blas"
	"repro/internal/cpd"
	"repro/internal/fmri"
	"repro/internal/mat"
)

func main() {
	// A quarter-scale version of the paper's 225×59×200×200 data.
	p := fmri.PaperParams().Scaled(0.25)
	p.Components = 5
	p.Noise = 0.05
	p.Seed = 3
	fmt.Printf("generating fMRI tensor %d×%d×%d×%d with %d planted networks...\n",
		p.Times, p.Subjects, p.Regions, p.Regions, p.Components)
	ds := fmri.GenerateOn(nil, p)

	// 3-way analysis on region pairs (i < j), as in Section 5.3.3: the
	// symmetric region modes are linearized, halving the data.
	x3 := ds.Linearize3()
	fmt.Printf("3-way form: %v (%.1f MB)\n", x3.Dims(), float64(x3.Size())*8/1e6)
	res3, err := cpd.ALS(x3, cpd.Config{Rank: p.Components, MaxIters: 200, Tol: 1e-8, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-way fit: %.4f after %d sweeps (%.0fms/sweep)\n",
		res3.Fit, res3.Iters, res3.MeanIterTime().Seconds()*1e3)

	// Match recovered components to the planted truth by factor-column
	// congruence (cosine similarity across all modes).
	truth3 := ds.Truth3()
	fmt.Println("component recovery (best-match congruence, 1.0 = exact):")
	for c := 0; c < p.Components; c++ {
		best, match := bestCongruence(truth3, res3.K, c)
		fmt.Printf("  planted network %d -> recovered component %d, congruence %.3f\n", c, match, best)
	}

	// 4-way analysis keeps the two region modes separate; the two region
	// factors of each component should agree (the data is symmetric).
	res4, err := cpd.ALS(ds.Tensor4, cpd.Config{Rank: p.Components, MaxIters: 200, Tol: 1e-8, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-way fit: %.4f after %d sweeps (%.0fms/sweep)\n",
		res4.Fit, res4.Iters, res4.MeanIterTime().Seconds()*1e3)
	sym := 0.0
	for c := 0; c < p.Components; c++ {
		sym += math.Abs(congruence(res4.K.Factors[2].Col(c), res4.K.Factors[3].Col(c)))
	}
	fmt.Printf("mean |congruence| between the two region factors: %.3f (symmetry check)\n",
		sym/float64(p.Components))
}

// bestCongruence finds the recovered component most similar to planted
// component c, scoring by the product of per-mode column cosines.
func bestCongruence(truth, got *cpd.KTensor, c int) (best float64, match int) {
	best = -1
	for r := 0; r < got.Rank(); r++ {
		score := 1.0
		for m := range truth.Factors {
			score *= math.Abs(congruence(truth.Factors[m].Col(c), got.Factors[m].Col(r)))
		}
		if score > best {
			best, match = score, r
		}
	}
	return best, match
}

func congruence(a, b mat.Vec) float64 {
	na, nb := blas.Nrm2(a), blas.Nrm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return blas.Dot(a, b) / (na * nb)
}

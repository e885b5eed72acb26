// Tensor compression: Tucker (HOSVD + HOOI) on the synthetic fMRI
// correlation tensor — the use case of Austin et al., whose no-reorder
// TTM layout insight the paper's 1-step MTTKRP builds on. Shows the
// compression-ratio / accuracy trade-off and compares against CP at a
// matched storage budget.
//
//	go run ./examples/compression
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/fmri"
	"repro/internal/tucker"
)

func main() {
	p := fmri.PaperParams().Scaled(0.2)
	p.Components = 4
	p.Noise = 0.02
	p.Seed = 8
	ds := fmri.GenerateOn(nil, p)
	x := ds.Tensor4
	fmt.Printf("fMRI tensor %v: %d entries (%.1f MB)\n",
		x.Dims(), x.Size(), float64(x.Size())*8/1e6)

	fmt.Println("\nTucker compression sweep (rank r in every mode):")
	fmt.Println("rank  fit      compression")
	for _, r := range []int{2, 4, 8, 12} {
		res, err := repro.Tucker(x, repro.TuckerConfig{
			Ranks:    []int{r, r, r, r},
			MaxIters: 10,
			Threads:  0,
		})
		if err != nil {
			log.Fatal(err)
		}
		stored := res.Model.Core.Size()
		for _, u := range res.Model.Factors {
			stored += u.R * u.C
		}
		fmt.Printf("%4d  %.5f  %8.1fx\n", r, res.Fit, float64(x.Size())/float64(stored))
	}

	// CP at a storage-matched rank for comparison: CP stores Σ I_n·C + C
	// numbers.
	cpRank := 8
	cpRes, err := repro.CP(x, repro.CPConfig{Rank: cpRank, MaxIters: 40, Tol: 1e-7})
	if err != nil {
		log.Fatal(err)
	}
	cpStored := cpRank
	for n := 0; n < x.Order(); n++ {
		cpStored += x.Dim(n) * cpRank
	}
	fmt.Printf("\nCP rank %d: fit %.5f at %.1fx compression\n",
		cpRank, cpRes.Fit, float64(x.Size())/float64(cpStored))

	// HOSVD alone (no HOOI sweeps) is already near-optimal on this data.
	m, err := tucker.HOSVD(x, []int{4, 4, 4, 4}, 0)
	if err != nil {
		log.Fatal(err)
	}
	diff := x.Clone()
	diff.AddScaled(-1, m.Full(0))
	fmt.Printf("one-shot HOSVD at rank 4: relative error %.4f\n", diff.Norm(nil, 0)/x.Norm(nil, 0))
}

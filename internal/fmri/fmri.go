// Package fmri generates synthetic neuroimaging tensors with the structure
// of the paper's application data (Section 3 and 5.3.3): a 4-way
// time × subject × region × region tensor of instantaneous correlations
// between brain regions, built from planted spatio-temporal "network"
// components plus noise, symmetric in the two region modes; and its
// symmetry-reduced 3-way linearization time × subject × region-pairs.
//
// The paper's data is 225 × 59 × 200 × 200 (and 225 × 59 × 19900 after
// linearizing pairs i < j). The generator reproduces those shapes at any
// scale; the planted low-rank-plus-noise structure makes CP-ALS recovery
// meaningful, not just timeable.
package fmri

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Params configures the generator.
type Params struct {
	// Times, Subjects, Regions are the T, S, R dimensions; the paper's
	// data has 225, 59, 200.
	Times, Subjects, Regions int
	// Components is the number of planted brain networks (CP rank of the
	// noiseless tensor).
	Components int
	// Noise is the relative noise level σ: noise entries are drawn
	// N(0, σ·rms(signal)). Zero gives an exactly rank-Components tensor.
	Noise float64
	// Seed drives all randomness.
	Seed int64
}

// PaperParams returns the paper's data dimensions with a plausible number
// of components.
func PaperParams() Params {
	return Params{Times: 225, Subjects: 59, Regions: 200, Components: 10, Noise: 0.1}
}

// Scaled shrinks every dimension by the given factor (≥ some floor so the
// structure survives), keeping Components and Noise.
func (p Params) Scaled(scale float64) Params {
	shrink := func(n int, floor int) int {
		v := int(math.Round(float64(n) * scale))
		if v < floor {
			v = floor
		}
		return v
	}
	p.Times = shrink(p.Times, 8)
	p.Subjects = shrink(p.Subjects, 4)
	p.Regions = shrink(p.Regions, 8)
	if p.Components > p.Regions {
		p.Components = p.Regions
	}
	return p
}

// Dataset is a generated fMRI-like tensor with its planted ground truth.
type Dataset struct {
	Params Params
	// Tensor4 is the T × S × R × R correlation tensor.
	Tensor4 *tensor.Dense
	// Truth holds the planted components as a 4-way Kruskal tensor with
	// factors [T-factor, S-factor, R-factor, R-factor] (the two region
	// factors are identical — the tensor is symmetric in those modes).
	Truth *cpd.KTensor
}

// GenerateOn builds the dataset on ex (pool or lease; nil selects the
// default pool). The planted structure is:
//
//   - temporal factors: smooth Gaussian bumps at random task onsets,
//     modulated by a slow sinusoid (task-locked network activity);
//   - subject factors: k-means-style cluster centers plus jitter
//     (subpopulations expressing each network differently);
//   - region factors: sparse non-negative memberships — each network is a
//     random subset of regions (a functional brain network).
//
// The noiseless tensor is Y(t,s,i,j) = Σ_c T(t,c)·S(s,c)·R(i,c)·R(j,c),
// exactly rank-Components and symmetric in (i, j); Gaussian noise
// (symmetrized) is added on top. The dense symmetric evaluation — the
// dominant cost at paper scale — is parallelized over region pairs on ex,
// while every random draw stays on the calling goroutine so the dataset is
// bit-identical at any width.
func GenerateOn(ex parallel.Executor, p Params) *Dataset {
	if p.Times <= 0 || p.Subjects <= 0 || p.Regions <= 0 || p.Components <= 0 {
		panic(fmt.Sprintf("fmri: non-positive dimension in %+v", p))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tf := temporalFactor(rng, p.Times, p.Components)
	sf := subjectFactor(rng, p.Subjects, p.Components)
	rf := regionFactor(rng, p.Regions, p.Components)

	lambda := make([]float64, p.Components)
	for c := range lambda {
		lambda[c] = 1 + rng.Float64() // distinct component strengths
	}
	truth := cpd.NewKTensor(lambda, []mat.View{tf, sf, rf, rf})

	x := tensor.New(p.Times, p.Subjects, p.Regions, p.Regions)
	evaluateSymmetric(parallel.OrDefault(ex), x, lambda, tf, sf, rf)
	if p.Noise > 0 {
		addSymmetricNoise(rng, x, p.Noise)
	}
	return &Dataset{Params: p, Tensor4: x, Truth: truth}
}

// evaluateSymmetric fills x(t,s,i,j) = Σ_c λ_c T(t,c)S(s,c)R(i,c)R(j,c),
// evaluating only j ≥ i and mirroring. The outer region-pair loop is
// parallelized on ex: every (i, j) pair owns two disjoint tDim·sDim blocks
// of the tensor, so workers never write the same element and the result is
// independent of the dispatch width.
func evaluateSymmetric(ex parallel.Executor, x *tensor.Dense, lambda []float64, tf, sf, rf mat.View) {
	tDim, sDim, rDim := tf.R, sf.R, rf.R
	nc := len(lambda)
	data := x.Data()
	npairs := rDim * (rDim + 1) / 2 // i <= j, diagonal included
	w := parallel.Clamp(ex.Effective(0), npairs)
	// Pair cost is uniform, so the static block schedule balances; each
	// chunk re-derives (i, j) from the flat upper-triangular index.
	ex.For(w, npairs, func(_, lo, hi int) {
		ts := make([]float64, nc) // λ_c·S(s,c) for the current s
		for pi := lo; pi < hi; pi++ {
			// Invert pi = j(j+1)/2 + i with 0 <= i <= j.
			j := int((math.Sqrt(8*float64(pi)+1) - 1) / 2)
			for j*(j+1)/2 > pi {
				j--
			}
			for (j+1)*(j+2)/2 <= pi {
				j++
			}
			i := pi - j*(j+1)/2
			// Natural layout strides: t fastest, then s, then i, then j.
			base := (j*rDim + i) * tDim * sDim
			baseT := (i*rDim + j) * tDim * sDim
			for s := 0; s < sDim; s++ {
				for c := 0; c < nc; c++ {
					ts[c] = lambda[c] * sf.At(s, c)
				}
				row := data[base+s*tDim : base+(s+1)*tDim]
				for t := 0; t < tDim; t++ {
					v := 0.0
					for c := 0; c < nc; c++ {
						v += ts[c] * tf.At(t, c) * rf.At(i, c) * rf.At(j, c)
					}
					row[t] = v
				}
				if i != j {
					copy(data[baseT+s*tDim:baseT+(s+1)*tDim], row)
				}
			}
		}
	})
}

// addSymmetricNoise perturbs x with N(0, σ·rms) noise, mirrored across the
// region-pair modes so symmetry is preserved.
func addSymmetricNoise(rng *rand.Rand, x *tensor.Dense, sigma float64) {
	// One sequential sum, not x.NormSquared: its blocked sum rounds
	// differently, and rms scales every noise draw, so the dataset's bits
	// (and every input fingerprint built on them) would move.
	ss := 0.0
	for _, v := range x.Data() {
		ss += v * v
	}
	rms := math.Sqrt(ss / float64(x.Size()))
	sd := sigma * rms
	tDim, sDim, rDim := x.Dim(0), x.Dim(1), x.Dim(2)
	data := x.Data()
	for j := 0; j < rDim; j++ {
		for i := 0; i <= j; i++ {
			base := (j*rDim + i) * tDim * sDim
			baseT := (i*rDim + j) * tDim * sDim
			for k := 0; k < tDim*sDim; k++ {
				n := rng.NormFloat64() * sd
				data[base+k] += n
				if i != j {
					data[baseT+k] += n
				}
			}
		}
	}
}

// temporalFactor builds smooth task-locked time courses: Gaussian bumps at
// random onsets over a slow sinusoidal baseline.
func temporalFactor(rng *rand.Rand, tDim, nc int) mat.View {
	f := mat.NewDense(tDim, nc)
	for c := 0; c < nc; c++ {
		onset := rng.Float64() * float64(tDim)
		width := (0.05 + 0.15*rng.Float64()) * float64(tDim)
		phase := rng.Float64() * 2 * math.Pi
		freq := 1 + rng.Float64()*3
		for t := 0; t < tDim; t++ {
			d := (float64(t) - onset) / width
			bump := math.Exp(-0.5 * d * d)
			slow := 0.5 + 0.5*math.Sin(2*math.Pi*freq*float64(t)/float64(tDim)+phase)
			f.Set(t, c, bump*0.8+slow*0.4)
		}
	}
	return f
}

// subjectFactor builds clustered subject loadings: a few subpopulations,
// each expressing components with a shared profile plus jitter.
func subjectFactor(rng *rand.Rand, sDim, nc int) mat.View {
	f := mat.NewDense(sDim, nc)
	nClusters := 3
	if sDim < nClusters {
		nClusters = sDim
	}
	centers := mat.NewDense(nClusters, nc)
	for k := 0; k < nClusters; k++ {
		for c := 0; c < nc; c++ {
			centers.Set(k, c, 0.2+rng.Float64())
		}
	}
	for s := 0; s < sDim; s++ {
		k := s % nClusters
		for c := 0; c < nc; c++ {
			f.Set(s, c, math.Max(0.05, centers.At(k, c)+0.15*rng.NormFloat64()))
		}
	}
	return f
}

// regionFactor builds sparse non-negative network memberships: each
// component activates a contiguous-ish random subset of regions.
func regionFactor(rng *rand.Rand, rDim, nc int) mat.View {
	f := mat.NewDense(rDim, nc)
	for c := 0; c < nc; c++ {
		size := rDim/4 + rng.Intn(rDim/4+1) // network spans ~25-50% of regions
		if size < 1 {
			size = 1
		}
		start := rng.Intn(rDim)
		for k := 0; k < size; k++ {
			r := (start + k) % rDim
			f.Set(r, c, 0.5+rng.Float64())
		}
		// Light background membership keeps Grams well conditioned.
		for r := 0; r < rDim; r++ {
			f.Add(r, c, 0.02)
		}
	}
	return f
}

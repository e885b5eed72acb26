package repro_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/fmri"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// TestEndToEndNeuroimagingPipeline walks the paper's full application
// path: generate the correlation tensor, reduce it by symmetry, decompose
// with the hybrid MTTKRP (plain and multi-sweep), verify the planted
// structure is found, check the diagnostic, and round-trip through the
// on-disk format.
func TestEndToEndNeuroimagingPipeline(t *testing.T) {
	p := fmri.Params{Times: 16, Subjects: 6, Regions: 12, Components: 3, Noise: 0.02, Seed: 9}
	ds := fmri.GenerateOn(nil, p)
	x3 := ds.Linearize3()

	// Persist and reload; the decomposition must see identical data.
	path := filepath.Join(t.TempDir(), "fmri3.tns")
	if err := x3.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := tensor.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(x3, loaded) != 0 {
		t.Fatal("save/load changed the tensor")
	}

	// Decompose at the planted rank: the default dimension-tree sweep and
	// the paper's per-mode hybrid.
	plain, err := cpd.ALS(loaded, cpd.Config{Rank: 3, MaxIters: 120, Tol: 1e-10, Seed: 4, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	perMode, err := cpd.ALS(loaded, cpd.Config{Rank: 3, MaxIters: 120, Tol: 1e-10, Seed: 4, Threads: 2, Method: core.MethodTwoStep})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fit < 0.9 || perMode.Fit < 0.9 {
		t.Fatalf("fits too low: default %v per-mode %v", plain.Fit, perMode.Fit)
	}
	if math.Abs(plain.Fit-perMode.Fit) > 1e-3 {
		t.Errorf("sweeps diverged: %v vs %v", plain.Fit, perMode.Fit)
	}

	// The model should be structurally valid at the planted rank.
	if cc := cpd.Corcondia(2, loaded, plain.K); cc < 50 {
		t.Errorf("corcondia %v at the planted rank", cc)
	}

	// All MTTKRP methods agree on this real(istic) tensor.
	factors := plain.K.Factors
	for n := 0; n < loaded.Order(); n++ {
		ref := core.Compute(core.MethodNaive, loaded, factors, n, core.Options{})
		for _, m := range core.Methods() {
			got := core.Compute(m, loaded, factors, n, core.Options{Threads: 2})
			for i := 0; i < ref.R; i++ {
				for j := 0; j < ref.C; j++ {
					d := math.Abs(got.At(i, j) - ref.At(i, j))
					if d > 1e-8*(1+math.Abs(ref.At(i, j))) {
						t.Fatalf("method %v mode %d disagrees at (%d,%d)", m, n, i, j)
					}
				}
			}
		}
	}

	// Tucker compression of the 4-way tensor reaches the noise floor.
	tk, err := tucker.Decompose(ds.Tensor4, tucker.Config{Ranks: []int{4, 4, 4, 4}, MaxIters: 6, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Fit < 0.95 {
		t.Errorf("tucker fit %v", tk.Fit)
	}
}

// TestEndToEndFacadeWorkflow exercises the public API the way the README
// quick start does, including the KRP identity that defines MTTKRP.
func TestEndToEndFacadeWorkflow(t *testing.T) {
	x := repro.NewTensor(6, 5, 4)
	for i, d := range x.Data() {
		_ = d
		x.Data()[i] = float64(i%17) / 17
	}
	factors := []repro.Matrix{
		repro.NewMatrix(6, 2), repro.NewMatrix(5, 2), repro.NewMatrix(4, 2),
	}
	for _, f := range factors {
		for i := 0; i < f.R; i++ {
			for j := 0; j < f.C; j++ {
				f.Set(i, j, float64(i+j+1)/float64(f.R))
			}
		}
	}
	// MTTKRP against its definition via the explicit KRP: M = X_(1)·K.
	m := repro.MTTKRP(x, factors, 1, repro.MTTKRPOptions{Threads: 2})
	k := repro.KhatriRao(1, factors[2], factors[0])
	want := repro.NewMatrix(5, 2)
	// X_(1) entry (i1, i0 + i2·6): accumulate directly.
	for i0 := 0; i0 < 6; i0++ {
		for i1 := 0; i1 < 5; i1++ {
			for i2 := 0; i2 < 4; i2++ {
				v := x.At(i0, i1, i2)
				for c := 0; c < 2; c++ {
					want.Add(i1, c, v*k.At(i0+i2*6, c))
				}
			}
		}
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(m.At(i, j)-want.At(i, j)) > 1e-10 {
				t.Fatalf("MTTKRP != X_(n)·KRP at (%d,%d)", i, j)
			}
		}
	}
}

package fmri

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpd"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func smallParams() Params {
	return Params{Times: 12, Subjects: 6, Regions: 10, Components: 3, Seed: 1}
}

func TestGenerateDimensions(t *testing.T) {
	d := GenerateOn(nil, smallParams())
	dims := d.Tensor4.Dims()
	want := []int{12, 6, 10, 10}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dims = %v, want %v", dims, want)
		}
	}
	if d.Truth.Rank() != 3 || d.Truth.Order() != 4 {
		t.Error("truth shape wrong")
	}
}

func TestTensorIsSymmetricInRegionModes(t *testing.T) {
	p := smallParams()
	p.Noise = 0.2 // noise must preserve symmetry too
	d := GenerateOn(nil, p)
	x := d.Tensor4
	for tt := 0; tt < p.Times; tt += 3 {
		for s := 0; s < p.Subjects; s += 2 {
			for i := 0; i < p.Regions; i++ {
				for j := 0; j < p.Regions; j++ {
					if x.At(tt, s, i, j) != x.At(tt, s, j, i) {
						t.Fatalf("asymmetry at (%d,%d,%d,%d)", tt, s, i, j)
					}
				}
			}
		}
	}
}

func TestNoiselessTensorMatchesTruth(t *testing.T) {
	d := GenerateOn(nil, smallParams())
	y := d.Truth.Full()
	if !tensor.ApproxEqual(d.Tensor4, y, 1e-10) {
		t.Errorf("noiseless tensor != planted model, maxdiff %g", tensor.MaxAbsDiff(d.Tensor4, y))
	}
}

func TestNoiseLevelIsCalibrated(t *testing.T) {
	p := smallParams()
	clean := GenerateOn(nil, p)
	p.Noise = 0.5
	noisy := GenerateOn(nil, p)
	diff := noisy.Tensor4.Clone()
	diff.AddScaled(-1, clean.Tensor4)
	rmsSignal := math.Sqrt(clean.Tensor4.NormSquared(nil, 1) / float64(clean.Tensor4.Size()))
	rmsNoise := math.Sqrt(diff.NormSquared(nil, 1) / float64(diff.Size()))
	ratio := rmsNoise / rmsSignal
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("noise ratio %v, want ≈ 0.5", ratio)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateOn(nil, smallParams())
	b := GenerateOn(nil, smallParams())
	if tensor.MaxAbsDiff(a.Tensor4, b.Tensor4) != 0 {
		t.Error("same seed should give identical tensors")
	}
	p := smallParams()
	p.Seed = 2
	c := GenerateOn(nil, p)
	if tensor.MaxAbsDiff(a.Tensor4, c.Tensor4) == 0 {
		t.Error("different seeds gave identical tensors")
	}
}

func TestPairIndexBijection(t *testing.T) {
	r := 20
	seen := make(map[int]bool)
	for j := 1; j < r; j++ {
		for i := 0; i < j; i++ {
			p := PairIndex(i, j)
			if p < 0 || p >= PairCount(r) {
				t.Fatalf("pair (%d,%d) index %d out of range", i, j, p)
			}
			if seen[p] {
				t.Fatalf("pair index %d duplicated", p)
			}
			seen[p] = true
			gi, gj := PairFromIndex(p)
			if gi != i || gj != j {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", i, j, p, gi, gj)
			}
		}
	}
	if len(seen) != PairCount(r) {
		t.Errorf("covered %d pairs, want %d", len(seen), PairCount(r))
	}
}

func TestPairCountMatchesPaper(t *testing.T) {
	if PairCount(200) != 19900 {
		t.Errorf("PairCount(200) = %d, want 19900 (paper Section 5.3.3)", PairCount(200))
	}
}

func TestPairIndexPanics(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {2, 1}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PairIndex(%d,%d) should panic", c[0], c[1])
				}
			}()
			PairIndex(c[0], c[1])
		}()
	}
}

func TestPairFromIndexQuick(t *testing.T) {
	f := func(p16 uint16) bool {
		p := int(p16)
		i, j := PairFromIndex(p)
		return i >= 0 && i < j && PairIndex(i, j) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearize3MatchesTensor4(t *testing.T) {
	p := smallParams()
	p.Noise = 0.1
	d := GenerateOn(nil, p)
	x3 := d.Linearize3()
	if x3.Dim(0) != p.Times || x3.Dim(1) != p.Subjects || x3.Dim(2) != PairCount(p.Regions) {
		t.Fatalf("3-way dims %v", x3.Dims())
	}
	for tt := 0; tt < p.Times; tt += 2 {
		for s := 0; s < p.Subjects; s++ {
			for j := 1; j < p.Regions; j++ {
				for i := 0; i < j; i++ {
					if x3.At(tt, s, PairIndex(i, j)) != d.Tensor4.At(tt, s, i, j) {
						t.Fatalf("3-way mismatch at (%d,%d,%d,%d)", tt, s, i, j)
					}
				}
			}
		}
	}
}

func TestTruth3ReconstructsNoiseless3Way(t *testing.T) {
	d := GenerateOn(nil, smallParams())
	x3 := d.Linearize3()
	y3 := d.Truth3().Full()
	if !tensor.ApproxEqual(x3, y3, 1e-10) {
		t.Errorf("3-way truth mismatch, maxdiff %g", tensor.MaxAbsDiff(x3, y3))
	}
}

func TestScaledParams(t *testing.T) {
	p := PaperParams().Scaled(0.25)
	if p.Times != 56 || p.Subjects != 15 || p.Regions != 50 {
		t.Errorf("scaled dims %d %d %d", p.Times, p.Subjects, p.Regions)
	}
	tiny := PaperParams().Scaled(0.001)
	if tiny.Times < 8 || tiny.Subjects < 4 || tiny.Regions < 8 {
		t.Errorf("floors not applied: %+v", tiny)
	}
	if tiny.Components > tiny.Regions {
		t.Error("components exceed regions")
	}
}

func TestGeneratePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GenerateOn(nil, Params{Times: 0, Subjects: 1, Regions: 1, Components: 1})
}

// Integration: CP-ALS on the noiseless 3-way tensor recovers a near-exact
// fit at the planted rank.
func TestALSRecoversPlantedNetworks(t *testing.T) {
	d := GenerateOn(nil, Params{Times: 10, Subjects: 5, Regions: 8, Components: 2, Seed: 3})
	x3 := d.Linearize3()
	res, err := cpd.ALS(x3, cpd.Config{Rank: 2, MaxIters: 150, Tol: 1e-12, Seed: 9, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.999 {
		t.Errorf("3-way fit = %v after %d iters", res.Fit, res.Iters)
	}
	res4, err := cpd.ALS(d.Tensor4, cpd.Config{Rank: 2, MaxIters: 150, Tol: 1e-12, Seed: 9, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Fit < 0.999 {
		t.Errorf("4-way fit = %v after %d iters", res4.Fit, res4.Iters)
	}
}

// TestGenerateOnMatchesSequential pins the determinism contract of the
// executor-threaded generator: the dataset is bit-identical at any dispatch
// width, because every random draw happens on the calling goroutine and
// region-pair workers write disjoint tensor blocks.
func TestGenerateOnMatchesSequential(t *testing.T) {
	p := smallParams()
	p.Noise = 0.05
	want := GenerateOn(seqExec{}, p)
	pool := parallel.NewPool(4)
	defer pool.Close()
	got := GenerateOn(pool, p)
	wd, gd := want.Tensor4.Data(), got.Tensor4.Data()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, wd[i], gd[i])
		}
	}
}

// seqExec is a width-1 executor that runs everything inline.
type seqExec struct{}

func (seqExec) Effective(int) int { return 1 }
func (seqExec) Workers() int      { return 1 }
func (seqExec) Run(t int, body func(int)) {
	for w := 0; w < t; w++ {
		body(w)
	}
}
func (seqExec) For(t, n int, body func(w, lo, hi int))       { body(0, 0, n) }
func (seqExec) ReduceSum(t int, parts [][]float64) []float64 { return parts[0] }
func (seqExec) Acquire() *parallel.Workspace                 { panic("seqExec: no workspace") }

package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro"
	"repro/internal/mat"
)

func TestFacadeMTTKRPAgreesAcrossMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := repro.RandomTensor(rng, 6, 5, 4)
	factors := []repro.Matrix{
		repro.RandomMatrix(6, 3, rng),
		repro.RandomMatrix(5, 3, rng),
		repro.RandomMatrix(4, 3, rng),
	}
	for n := 0; n < 3; n++ {
		auto := repro.MTTKRP(x, factors, n, repro.MTTKRPOptions{Threads: 2})
		for _, m := range []repro.Method{repro.MethodOneStep, repro.MethodTwoStep, repro.MethodReorder} {
			got := repro.MTTKRPWith(m, x, factors, n, repro.MTTKRPOptions{Threads: 2})
			if !mat.ApproxEqual(got, auto, 1e-11) {
				t.Errorf("mode %d method %v disagrees with auto", n, m)
			}
		}
	}
}

func TestFacadeKhatriRao(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := repro.RandomMatrix(3, 4, rng)
	b := repro.RandomMatrix(5, 4, rng)
	k := repro.KhatriRao(2, a, b)
	if k.R != 15 || k.C != 4 {
		t.Fatalf("KRP dims %dx%d", k.R, k.C)
	}
	for ra := 0; ra < 3; ra++ {
		for rb := 0; rb < 5; rb++ {
			for c := 0; c < 4; c++ {
				if k.At(rb+ra*5, c) != a.At(ra, c)*b.At(rb, c) {
					t.Fatal("KRP content wrong")
				}
			}
		}
	}
}

func TestFacadeCP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := repro.RandomTensor(rng, 8, 7, 6)
	res, err := repro.CP(x, repro.CPConfig{Rank: 3, MaxIters: 10, Seed: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit <= 0 || res.Iters == 0 {
		t.Errorf("fit %v after %d iters", res.Fit, res.Iters)
	}
	if res.K.Rank() != 3 || res.K.Order() != 3 {
		t.Error("result shape wrong")
	}
}

func TestFacadeTensorConstruction(t *testing.T) {
	x := repro.NewTensor(2, 3)
	if x.Size() != 6 {
		t.Error("NewTensor size")
	}
	buf := make([]float64, 6)
	y := repro.TensorFromData(buf, 2, 3)
	y.Set(5, 1, 2)
	if buf[5] != 5 {
		t.Error("TensorFromData must alias")
	}
	m := repro.NewMatrix(2, 2)
	if m.R != 2 || m.C != 2 {
		t.Error("NewMatrix dims")
	}
}

func TestFacadeExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := repro.RandomTensor(rng, 8, 7, 6)

	// TTM shrinks the contracted mode.
	m := repro.RandomMatrix(7, 3, rng)
	y := repro.TTM(2, x, 1, m)
	if y.Dim(1) != 3 || y.Dim(0) != 8 || y.Dim(2) != 6 {
		t.Fatalf("TTM dims %v", y.Dims())
	}

	// The default dimension-tree sweep matches the per-mode hybrid.
	a, err := repro.CP(x, repro.CPConfig{Rank: 2, MaxIters: 4, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.CP(x, repro.CPConfig{Rank: 2, MaxIters: 4, Tol: -1, Seed: 1, Method: repro.MethodTwoStep})
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Fit - b.Fit; d > 1e-12 || d < -1e-12 {
		t.Errorf("per-mode 2-step fit %v vs default %v", b.Fit, a.Fit)
	}

	// Diagnostics and init run.
	if cc := repro.Corcondia(2, x, a.K); cc > 100.000001 {
		t.Errorf("corcondia %v > 100", cc)
	}
	init := repro.NVecsInit(2, x, 2, 1)
	if init.Rank() != 2 || init.Order() != 3 {
		t.Error("nvecs init shape wrong")
	}

	// Nonnegative CP keeps factors nonnegative.
	nn, err := repro.NonnegativeCP(x, repro.CPConfig{Rank: 2, MaxIters: 5, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range nn.K.Factors {
		for i := 0; i < u.R; i++ {
			for j := 0; j < u.C; j++ {
				if u.At(i, j) < 0 {
					t.Fatal("negative factor entry from NonnegativeCP")
				}
			}
		}
	}

	// Tucker decomposition and reconstruction.
	tk, err := repro.Tucker(x, repro.TuckerConfig{Ranks: []int{4, 4, 4}, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Fit <= 0 || tk.Model.Core.Dim(0) != 4 {
		t.Errorf("tucker fit %v core %v", tk.Fit, tk.Model.Core.Dims())
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := repro.RandomTensor(rng, 4, 3, 2)
	path := filepath.Join(t.TempDir(), "t.tns")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := back.(*repro.Dense)
	if !ok {
		t.Fatalf("loaded %v tensor, want dense", back.Layout())
	}
	if d.Size() != x.Size() || d.At(1, 2, 1) != x.At(1, 2, 1) {
		t.Error("load round trip wrong")
	}
	// One dense file format: a mappable file loads through both loaders.
	mapped := filepath.Join(t.TempDir(), "t.dsnt")
	if err := repro.WriteDenseFile(mapped, x); err != nil {
		t.Fatal(err)
	}
	back, err = repro.LoadTensor(mapped)
	if err != nil {
		t.Fatal(err)
	}
	bd, ok := back.(*repro.Dense)
	if !ok {
		t.Fatalf("WriteDenseFile tensor loaded as %v, want dense", back.Layout())
	}
	dd, err := repro.LoadDenseTensor(mapped)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*repro.Dense{bd, dd} {
		for i, v := range x.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("entry %d of a WriteDenseFile tensor loads as %v, want %v", i, got.Data()[i], v)
			}
		}
	}

	// The same file, mapped, computes exactly as the heap tensor: MTTKRP
	// per mode and CP through the facade, and MTTKRP through a server.
	m, err := repro.OpenDenseFile(mapped)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	factors := make([]repro.Matrix, x.Order())
	for k := range factors {
		factors[k] = repro.RandomMatrix(x.Dim(k), 2, rng)
	}
	sameBits := func(what string, got, want repro.Matrix) {
		t.Helper()
		for i := 0; i < want.R; i++ {
			for j := 0; j < want.C; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Errorf("%s: (%d,%d) is %v, heap tensor gives %v", what, i, j, got.At(i, j), want.At(i, j))
					return
				}
			}
		}
	}
	srv := repro.NewServer(repro.ServerConfig{Workers: 2, MaxActive: 1})
	defer srv.Close()
	opts := repro.MTTKRPOptions{Threads: 2}
	for n := 0; n < x.Order(); n++ {
		sameBits(fmt.Sprintf("mode %d MTTKRP", n), repro.MTTKRP(m, factors, n, opts), repro.MTTKRP(x, factors, n, opts))
		want, err := srv.SubmitMTTKRP(repro.MTTKRPRequest{X: x, Factors: factors, Mode: n}).MTTKRP()
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.SubmitMTTKRP(repro.MTTKRPRequest{X: m, Factors: factors, Mode: n}).MTTKRP()
		if err != nil {
			t.Fatalf("served mode %d MTTKRP of the mapped tensor: %v", n, err)
		}
		sameBits(fmt.Sprintf("served mode %d MTTKRP", n), got, want)
	}
	cfg := repro.CPConfig{Rank: 2, MaxIters: 3, Tol: -1, Seed: 1, Threads: 2}
	heap, err := repro.CP(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := repro.CP(m, cfg)
	if err != nil {
		t.Fatalf("CP of the mapped tensor: %v", err)
	}
	if math.Float64bits(fromFile.Fit) != math.Float64bits(heap.Fit) {
		t.Errorf("CP fit %v on the mapped tensor, %v on the heap tensor", fromFile.Fit, heap.Fit)
	}
}

func TestFacadeSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := repro.RandomSparseTensor(rng, 0.05, 30, 20, 10)
	if s.Layout() != repro.LayoutCOO || s.NNZ() < 1 {
		t.Fatalf("layout %v nnz %d", s.Layout(), s.NNZ())
	}
	u := make([]repro.Matrix, 3)
	for k := 0; k < 3; k++ {
		u[k] = repro.RandomMatrix(s.Dim(k), 4, rng)
	}
	// The shape-generic entry point must agree with the densified
	// reference computed through the same entry point.
	got := repro.MTTKRP(s, u, 1, repro.MTTKRPOptions{Threads: 2})
	want := repro.MTTKRP(s.Densify(), u, 1, repro.MTTKRPOptions{Threads: 2})
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			if diff := got.At(i, j) - want.At(i, j); diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("sparse MTTKRP mismatch at (%d,%d): %g vs %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	// Sparse round trip through the sniffing loader.
	path := filepath.Join(t.TempDir(), "s.tns")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	sb, ok := back.(*repro.Sparse)
	if !ok {
		t.Fatalf("loaded %v tensor, want sparse", back.Layout())
	}
	if sb.NNZ() != s.NNZ() || !slices.Equal(sb.Dims(), s.Dims()) {
		t.Fatalf("round trip %v with nnz %d, want %v with %d", sb.Dims(), sb.NNZ(), s.Dims(), s.NNZ())
	}
	// CP over the sparse layout converges on the same machinery.
	res, err := repro.CP(s, repro.CPConfig{Rank: 2, MaxIters: 3, Tol: -1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 || len(res.K.Factors) != 3 {
		t.Fatalf("sparse CP ran %d iters, %d factors", res.Iters, len(res.K.Factors))
	}
}

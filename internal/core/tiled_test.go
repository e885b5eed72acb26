package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestTiledBitIdentical sweeps tile size × mode × method × threads and pins
// math.Float64bits equality of the tiled kernels against the untiled ones —
// the bit-identity contract of the out-of-core path.
func TestTiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Random(rng, 13, 9, 11, 7)
	const c = 5
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), c, rng)
	}
	for _, threads := range []int{1, 3} {
		pool := parallel.NewPool(threads)
		defer pool.Close()
		for _, method := range []Method{MethodOneStep, MethodTwoStep, MethodAuto} {
			for n := 0; n < x.Order(); n++ {
				want := Compute(method, x, u, n, Options{Threads: threads, Pool: pool})
				for _, tile := range []int{1, 2, 3, 4, 5, x.Dim(n) - 1, x.Dim(n), x.Dim(n) + 3} {
					opts := Options{Threads: threads, Pool: pool, TileRows: tile}
					got := ComputeInto(mat.NewDense(x.Dim(n), c), method, x, u, n, opts)
					bitsEqual(t, got, want, "tiled vs untiled")
				}
			}
		}
	}
}

// TestTiledMappedLargerThanBudget maps a file-backed tensor more than 2×
// larger than the tile budget and checks the streamed result is
// bit-identical to the untiled kernel run on a RAM-resident copy of the
// same data — the acceptance criterion for the out-of-core path.
func TestTiledMappedLargerThanBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	heap := tensor.Random(rng, 24, 18, 20) // 67.5 KiB slab
	path := filepath.Join(t.TempDir(), "big.dsnt")
	if err := tensor.WriteDenseFile(path, heap); err != nil {
		t.Fatalf("WriteDenseFile: %v", err)
	}
	m, err := tensor.OpenDense(path)
	if err != nil {
		t.Fatalf("OpenDense: %v", err)
	}
	defer m.Close()

	const c = 6
	u := make([]mat.View, heap.Order())
	for k := range u {
		u[k] = mat.RandomDense(heap.Dim(k), c, rng)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()

	const budget = 16 << 10 // 16 KiB tiles: > 4× smaller than the slab
	for n := 0; n < heap.Order(); n++ {
		tile := AutoTileRows(heap.Dims(), n, budget)
		if tile == 0 {
			t.Fatalf("mode %d: AutoTileRows found the tensor within a %d-byte budget", n, budget)
		}
		if int64(tile)*int64(heap.Size()/heap.Dim(n))*8 > budget {
			t.Fatalf("mode %d: tile %d exceeds the byte budget", n, tile)
		}
		for _, method := range []Method{MethodOneStep, MethodTwoStep} {
			want := Compute(method, heap, u, n, Options{Threads: 3, Pool: pool})
			opts := Options{Threads: 3, Pool: pool, TileRows: tile}
			got := ComputeInto(mat.NewDense(heap.Dim(n), c), method, m.Dense, u, n, opts)
			bitsEqual(t, got, want, "tiled vs untiled")
		}
	}
}

// TestTiledSteadyStateAllocFree extends the pool runtime's allocation
// guarantee to the tiled drivers.
func TestTiledSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.Random(rng, 30, 20, 25, 15)
	u := make([]mat.View, 4)
	for k := 0; k < 4; k++ {
		u[k] = mat.RandomDense(x.Dim(k), 16, rng)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		method Method
		n      int
	}{
		{"tiled-onestep-ext0", MethodOneStep, 0},
		{"tiled-onestep-extN", MethodOneStep, 3},
		{"tiled-onestep-int", MethodOneStep, 1},
		{"tiled-twostep", MethodTwoStep, 2},
	} {
		dst := mat.NewDense(x.Dim(tc.n), 16)
		opts := Options{Threads: 4, Pool: pool, TileRows: 7}
		ComputeInto(dst, tc.method, x, u, tc.n, opts) // warmup
		ComputeInto(dst, tc.method, x, u, tc.n, opts)
		allocs := testing.AllocsPerRun(20, func() {
			ComputeInto(dst, tc.method, x, u, tc.n, opts)
		})
		t.Logf("%s: %.1f allocs/op", tc.name, allocs)
		if allocs > 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestAutoTileRows(t *testing.T) {
	dims := []int{64, 48, 40}
	if got := AutoTileRows(dims, 0, 1<<30); got != 0 {
		t.Fatalf("huge budget: got %d, want 0 (untiled)", got)
	}
	// 48·40 = 1920 elements per mode-0 row = 15360 bytes; a 64 KiB budget
	// holds 4 rows.
	if got := AutoTileRows(dims, 0, 64<<10); got != 4 {
		t.Fatalf("64 KiB budget: got %d, want 4", got)
	}
	if got := AutoTileRows(dims, 1, 1); got != 2 {
		t.Fatalf("tiny budget: got %d, want the 2-row floor", got)
	}
	if got := AutoTileRows(dims, 2, 0); got != 0 {
		t.Fatalf("default budget on a small tensor: got %d, want 0", got)
	}
}

// BenchmarkTiledMTTKRP measures the tiled driver against the untiled one
// on a file-backed (mapped) tensor, per mode — the EXPERIMENTS.md
// tiled-vs-untiled series. SetBytes is the tensor slab, so MB/s is the
// streaming rate over the mapped data section.
func BenchmarkTiledMTTKRP(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	heap := tensor.Random(rng, 96, 84, 72)
	path := filepath.Join(b.TempDir(), "x.dsnt")
	if err := tensor.WriteDenseFile(path, heap); err != nil {
		b.Fatal(err)
	}
	m, err := tensor.OpenDense(path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	const c = 16
	u := make([]mat.View, m.Order())
	for k := range u {
		u[k] = mat.RandomDense(m.Dim(k), c, rng)
	}
	pool := parallel.NewPool(4)
	defer pool.Close()
	for n := 0; n < m.Order(); n++ {
		for _, tiled := range []bool{false, true} {
			name := "untiled"
			opts := Options{Threads: 4, Pool: pool}
			if tiled {
				opts.TileRows = AutoTileRows(m.Dims(), n, 1<<20) // 1 MiB tile budget
				name = "tiled"
			}
			b.Run(name+"/mode="+string(rune('0'+n)), func(b *testing.B) {
				dst := mat.NewDense(m.Dim(n), c)
				b.SetBytes(int64(8 * m.Size()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ComputeInto(dst, MethodAuto, m.Dense, u, n, opts)
				}
			})
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// mapCopy writes heap to a DSNT file under tb's temp dir and maps it back;
// the mapping closes when tb ends.
func mapCopy(tb testing.TB, heap *tensor.Dense) *tensor.Map {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "x.dsnt")
	if err := tensor.WriteDenseFile(path, heap); err != nil {
		tb.Fatalf("WriteDenseFile: %v", err)
	}
	m, err := tensor.OpenDense(path)
	if err != nil {
		tb.Fatalf("OpenDense: %v", err)
	}
	tb.Cleanup(func() { m.Close() })
	return m
}

// TestMappedBitIdentical pins that a file-backed tensor computes where it
// lies, through the same kernels as a heap tensor: every method on every
// mode returns math.Float64bits-equal results for the mapping and for a
// heap copy of the same data, at Threads 1 and 3 on one pool. The order-4
// shapes run MethodAuto's split path on their external modes; the
// 32×32×32×40 file (10 MiB) is larger than the 8 MiB tiles mapped tensors
// were once cut into.
func TestMappedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := parallel.NewPool(3)
	defer pool.Close()
	const c = 6
	for _, dims := range [][]int{{24, 18, 20}, {10, 9, 9, 10}, {32, 32, 32, 40}} {
		heap := tensor.Random(rng, dims...)
		m := mapCopy(t, heap)
		u := randomFactors(rng, heap, c)
		for _, method := range []Method{MethodOneStep, MethodTwoStep, MethodAuto, MethodReorder} {
			for n := range dims {
				for _, threads := range []int{1, 3} {
					opts := Options{Threads: threads, Pool: pool}
					want := Compute(method, heap, u, n, opts)
					got := ComputeInto(mat.NewDense(dims[n], c), method, m.Dense, u, n, opts)
					bitsEqual(t, got, want, fmt.Sprintf("dims %v %v mode %d threads %d: mapped vs heap", dims, method, n, threads))
				}
			}
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

// BenchmarkMappedMTTKRP times MethodAuto on a mapped tensor against a heap
// copy of it, per mode, on the two shapes of the ledger's by-reference
// workload (rank 16, two workers). SetBytes is the tensor slab, so MB/s is
// the rate over the tensor's entries; -benchmem shows both sides at
// 0 allocs/op.
func BenchmarkMappedMTTKRP(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	pool := parallel.NewPool(2)
	defer pool.Close()
	const c = 16
	for _, tc := range []struct {
		name string
		dims []int
	}{{"128x128x80", []int{128, 128, 80}}, {"32x32x32x40", []int{32, 32, 32, 40}}} {
		heap := tensor.Random(rng, tc.dims...)
		m := mapCopy(b, heap)
		u := randomFactors(rng, heap, c)
		for n := range tc.dims {
			for _, side := range []struct {
				name string
				x    *tensor.Dense
			}{{"heap", heap}, {"mapped", m.Dense}} {
				b.Run(fmt.Sprintf("%s/%s/mode=%d", tc.name, side.name, n), func(b *testing.B) {
					dst := mat.NewDense(tc.dims[n], c)
					opts := Options{Threads: 2, Pool: pool}
					b.SetBytes(int64(8 * heap.Size()))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ComputeInto(dst, MethodAuto, side.x, u, n, opts)
					}
				})
			}
		}
	}
}

// Khatri-Rao product demo: the paper's Algorithm 1 (row-wise with reuse of
// partial Hadamard products) against the naive row-wise algorithm, on a
// KRP of Z matrices — a miniature of Figure 4.
//
//	go run ./examples/krp
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	c := 25
	threads := parallel.DefaultThreads()

	// Small exact example first: K = A ⊙ B row conventions.
	a := repro.RandomMatrix(2, 3, rng)
	b := repro.RandomMatrix(3, 3, rng)
	k := repro.KhatriRao(1, a, b)
	fmt.Printf("KRP of %dx%d and %dx%d is %dx%d; K(rB + rA·IB, c) = A(rA,c)·B(rB,c):\n",
		a.R, a.C, b.R, b.C, k.R, k.C)
	fmt.Printf("  K(4, 0) = %.4f, A(1,0)·B(1,0) = %.4f\n\n", k.At(4, 0), a.At(1, 0)*b.At(1, 0))

	// Timing: reuse vs naive for Z = 2, 3, 4 with ~2M output rows, both on
	// one pool.
	pool := parallel.NewPool(threads)
	defer pool.Close()
	ws := pool.Acquire()
	defer ws.Release()
	j := 2_000_000
	for _, z := range []int{2, 3, 4} {
		per := int(float64(j) + 0.5)
		switch z {
		case 2:
			per = 1414
		case 3:
			per = 126
		case 4:
			per = 38
		}
		mats := make([]mat.View, z)
		rows := 1
		for i := range mats {
			mats[i] = mat.RandomDense(per, c, rng)
			rows *= per
		}
		out := mat.NewDense(rows, c)

		naive := timeIt(func() { krp.NaiveParallel(pool, threads, mats, out) })
		reuse := timeIt(func() { krp.ParallelOn(pool, ws, threads, mats, out) })
		fmt.Printf("Z=%d (%d rows × %d cols): naive %7.1fms, reuse %7.1fms, speedup %.2fx\n",
			z, rows, c, naive*1e3, reuse*1e3, naive/reuse)
	}
	fmt.Println("\nreuse ≈ naive at Z=2 (nothing to reuse); the gap grows with Z,")
	fmt.Println("matching Figure 4 (the paper reports 1.5–2.5x for Z in {3,4}).")
}

func timeIt(f func()) float64 {
	f() // warmup
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Seconds()
}

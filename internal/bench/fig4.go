package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/stream"
)

// Fig4 regenerates Figure 4: Khatri-Rao product time versus thread count,
// comparing Algorithm 1 ("Reuse") against the naive row-wise algorithm and
// the STREAM scale benchmark, for Z ∈ {2, 3, 4} input matrices and the
// given column count C (25 for Figure 4a, 50 for Figure 4b). Input row
// dimensions are equal with product ≈ J. Every series runs on one pool the
// figure owns.
func Fig4(cfg Config, c int) *Table {
	cfg = cfg.WithDefaults()
	j := cfg.KRPRows()
	threads := ThreadCounts(cfg.MaxThreads)
	pool := parallel.NewPool(threads[len(threads)-1])
	defer pool.Close()
	ws := pool.Acquire()
	defer ws.Release()

	cols := []string{fmt.Sprintf("series (J≈%d, C=%d)", j, c)}
	for _, t := range threads {
		cols = append(cols, fmt.Sprintf("T=%d", t))
	}
	table := NewTable(fmt.Sprintf("Figure 4 (C=%d): KRP time in seconds vs threads", c), cols...)

	type series struct {
		name  string
		times []float64
	}
	var all []series

	for _, z := range []int{2, 3, 4} {
		mats, rows := fig4Operands(z, j, c)
		out := mat.NewDense(rows, c)
		naive := series{name: fmt.Sprintf("%d-Naive", z)}
		reuse := series{name: fmt.Sprintf("%d-Reuse", z)}
		for _, t := range threads {
			st := Measure(cfg.Trials, func() { krp.NaiveParallel(pool, t, mats, out) })
			naive.times = append(naive.times, st.Median.Seconds())
			st = Measure(cfg.Trials, func() { krp.ParallelOn(pool, ws, t, mats, out) })
			reuse.times = append(reuse.times, st.Median.Seconds())
		}
		all = append(all, naive, reuse)
	}

	// STREAM over a buffer the size of the output matrix.
	_, rows := fig4Operands(2, j, c)
	sb := stream.New(rows * c)
	str := series{name: "STREAM"}
	for _, t := range threads {
		st := MeasureTimed(cfg.Trials, func() time.Duration { return sb.RunOn(pool, t) })
		str.times = append(str.times, st.Median.Seconds())
	}
	all = append(all, str)

	for _, s := range all {
		table.Addf(s.name, "%.4f", s.times...)
	}
	table.Fprint(cfg.Out)

	// Observations the paper calls out: reuse-vs-naive speedup for Z ≥ 3,
	// and parallel scaling of Reuse.
	last := len(threads) - 1
	for zi, z := range []int{2, 3, 4} {
		n, r := all[2*zi], all[2*zi+1]
		fmt.Fprintf(cfg.Out, "OBS fig4 C=%d Z=%d: reuse speedup over naive = %.2fx (T=%d); reuse parallel speedup = %.2fx\n",
			c, z, n.times[last]/r.times[last], threads[last], r.times[0]/r.times[last])
	}
	fmt.Fprintf(cfg.Out, "OBS fig4 C=%d: reuse(Z=4) / STREAM at T=%d = %.2fx\n\n",
		c, threads[last], all[5].times[last]/all[6].times[last])
	return table
}

// fig4Operands builds Z equal-row-count random matrices whose KRP has
// about j rows.
func fig4Operands(z, j, c int) ([]mat.View, int) {
	per := int(math.Round(math.Pow(float64(j), 1/float64(z))))
	if per < 2 {
		per = 2
	}
	rng := rand.New(rand.NewSource(int64(z*1000 + c)))
	mats := make([]mat.View, z)
	rows := 1
	for i := range mats {
		mats[i] = mat.RandomDense(per, c, rng)
		rows *= per
	}
	return mats, rows
}

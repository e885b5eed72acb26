package bench

import (
	"fmt"

	"repro/internal/core"
)

// fig5Rank is the factor column count used throughout Figures 5 and 6.
const fig5Rank = 25

// Fig5 regenerates Figure 5: MTTKRP time versus thread count for tensors
// of order N = 3..6 with equal dimensions and ≈ 750M·Scale entries,
// C = 25. Series: 1-step for every mode, 2-step for internal modes, and
// the baseline DGEMM (a same-shape column-major GEMM, excluding reorder
// and KRP time).
func Fig5(cfg Config) []*Table {
	cfg = cfg.WithDefaults()
	var tables []*Table
	for _, n := range []int{3, 4, 5, 6} {
		tables = append(tables, fig5ForOrder(cfg, n))
	}
	return tables
}

func fig5ForOrder(cfg Config, order int) *Table {
	threads := ThreadCounts(cfg.MaxThreads)
	x, u := EqualDimsProblem(order, paperEntries*cfg.Scale, fig5Rank)

	cols := []string{fmt.Sprintf("series (N=%d, dims=%v, C=%d)", order, x.Dim(0), fig5Rank)}
	for _, t := range threads {
		cols = append(cols, fmt.Sprintf("T=%d", t))
	}
	table := NewTable(fmt.Sprintf("Figure 5 (N=%d: %d^%d ≈ %d entries): MTTKRP seconds vs threads",
		order, x.Dim(0), order, x.Size()), cols...)

	seq1 := make([]float64, order) // 1-step T=1 per mode, for observations
	var seqBL, parBL float64
	for n := 0; n < order; n++ {
		times := make([]float64, 0, len(threads))
		for _, t := range threads {
			st := Measure(cfg.Trials, func() {
				core.OneStep(x, u, n, core.Options{Threads: t})
			})
			times = append(times, st.Median.Seconds())
		}
		seq1[n] = times[0]
		table.Addf(fmt.Sprintf("1-Step, n = %d", n), "%.4f", times...)
	}
	for n := 1; n < order-1; n++ {
		times := make([]float64, 0, len(threads))
		for _, t := range threads {
			st := Measure(cfg.Trials, func() {
				core.TwoStep(x, u, n, core.Options{Threads: t})
			})
			times = append(times, st.Median.Seconds())
		}
		table.Addf(fmt.Sprintf("2-Step, n = %d", n), "%.4f", times...)
	}
	{
		g := core.NewGemmBaselineFor(x, 0, fig5Rank)
		times := make([]float64, 0, len(threads))
		for _, t := range threads {
			st := Measure(cfg.Trials, func() { g.Run(t, nil) })
			times = append(times, st.Median.Seconds())
		}
		seqBL, parBL = times[0], times[len(times)-1]
		table.Addf("Baseline", "%.4f", times...)
	}
	table.Fprint(cfg.Out)

	// Shape observations: sequential 1-step vs baseline ratio (paper: at
	// most ~2x slower), and baseline parallel scaling (paper: poor).
	worst := 0.0
	for _, s := range seq1 {
		if r := s / seqBL; r > worst {
			worst = r
		}
	}
	fmt.Fprintf(cfg.Out, "OBS fig5 N=%d: worst seq 1-step/baseline = %.2fx; baseline parallel speedup = %.2fx (T=%d)\n\n",
		order, worst, seqBL/parBL, threads[len(threads)-1])
	return table
}

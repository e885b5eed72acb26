package bench

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// Fig6 regenerates Figure 6: the time breakdown of baseline, 1-step and
// 2-step MTTKRP across modes for N = 3..6, sequential (T=1) and parallel
// (T=MaxThreads). Phase categories match the paper's legend: DGEMM, DGEMV,
// Full KRP, L&R KRP, REDUCE, plus REORDER, which the paper's GEMM-only
// baseline leaves out: each mode's R row runs the reorder baseline
// (core.Reorder: explicit unfold, full KRP, one GEMM), whose breakdown
// shows what that exclusion hides. Each order's problem is built once and
// timed at both widths.
func Fig6(cfg Config) []*Table {
	cfg = cfg.WithDefaults()
	var tables []*Table
	for _, order := range []int{3, 4, 5, 6} {
		x, u := EqualDimsProblem(order, paperEntries*cfg.Scale, fig5Rank)
		g := core.NewGemmBaselineFor(x, 0, fig5Rank)
		for _, t := range []int{1, cfg.MaxThreads} {
			tables = append(tables, fig6ForOrder(cfg, x, u, g, t))
		}
	}
	return tables
}

func fig6ForOrder(cfg Config, x *tensor.Dense, u []mat.View, g *core.GemmBaseline, t int) *Table {
	order := x.Order()
	label := "Seq."
	if t > 1 {
		label = fmt.Sprintf("Par. T=%d", t)
	}
	table := breakdownTable(
		fmt.Sprintf("Figure 6 (%s, N=%d: %d^%d): MTTKRP time breakdown in milliseconds", label, order, x.Dim(0), order))

	for n := 0; n < order; n++ {
		addBreakdownRow(table, fmt.Sprintf("n=%d B", n), cfg.Trials, func(bd *core.Breakdown) {
			g.Run(t, bd)
		})
		addBreakdownRow(table, fmt.Sprintf("n=%d R", n), cfg.Trials, func(bd *core.Breakdown) {
			core.Reorder(x, u, n, core.Options{Threads: t, Breakdown: bd})
		})
		addBreakdownRow(table, fmt.Sprintf("n=%d 1S", n), cfg.Trials, func(bd *core.Breakdown) {
			core.OneStep(x, u, n, core.Options{Threads: t, Breakdown: bd})
		})
		if n > 0 && n < order-1 {
			addBreakdownRow(table, fmt.Sprintf("n=%d 2S", n), cfg.Trials, func(bd *core.Breakdown) {
				core.TwoStep(x, u, n, core.Options{Threads: t, Breakdown: bd})
			})
		}
	}
	table.Fprint(cfg.Out)
	return table
}

// breakdownTable creates a table with one column per phase plus a total.
func breakdownTable(title string) *Table {
	cols := []string{"mode/method"}
	for _, p := range core.Phases() {
		cols = append(cols, p.String())
	}
	cols = append(cols, "TOTAL")
	return NewTable(title, cols...)
}

// addBreakdownRow runs fn trials times accumulating a Breakdown, averages
// it, and appends a row of per-phase milliseconds.
func addBreakdownRow(table *Table, label string, trials int, fn func(*core.Breakdown)) {
	var bd core.Breakdown
	fn(&bd) // warmup
	bd.Reset()
	for i := 0; i < trials; i++ {
		fn(&bd)
	}
	bd.Scale(trials)
	row := []string{label}
	for _, p := range core.Phases() {
		row = append(row, formatMs(bd.Get(p)))
	}
	table.Add(append(row, formatMs(bd.Total()))...)
}

// formatMs renders a phase time in milliseconds with three significant
// digits and no exponent: a phase that did not run reads "0", and one
// that ran never rounds to zero, however short (0.03 ms reads 0.0300,
// 20 ns 0.0000200), while long phases keep every integer digit.
func formatMs(d time.Duration) string {
	if d == 0 {
		return "0"
	}
	ms := float64(d) / float64(time.Millisecond)
	return strconv.FormatFloat(ms, 'f', max(0, 2-int(math.Floor(math.Log10(ms)))), 64)
}

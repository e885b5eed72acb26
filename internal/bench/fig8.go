package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// fig8Rank matches the C = 25 used for the Figure 8 breakdowns.
const fig8Rank = 25

// Fig8 regenerates Figure 8: MTTKRP time breakdowns on the application
// (fMRI) tensors — modes of very different sizes, unlike the cubic
// Figure 6 tensors — sequential and parallel.
func Fig8(cfg Config) []*Table {
	cfg = cfg.WithDefaults()
	var tables []*Table
	for _, ft := range fmriTensors(cfg.Scale) {
		rng := rand.New(rand.NewSource(42))
		u := make([]mat.View, ft.x.Order())
		for k := range u {
			u[k] = mat.RandomDense(ft.x.Dim(k), fig8Rank, rng)
		}
		for _, t := range []int{1, cfg.MaxThreads} {
			tables = append(tables, fig8ForTensor(cfg, ft.name, ft.x, u, t))
		}
	}
	return tables
}

func fig8ForTensor(cfg Config, name string, x *tensor.Dense, u []mat.View, t int) *Table {
	label := "Seq."
	if t > 1 {
		label = fmt.Sprintf("Par. T=%d", t)
	}
	table := breakdownTable(fmt.Sprintf("Figure 8 (%s fMRI tensor %v, %s): MTTKRP breakdown in milliseconds",
		name, x.Dims(), label))
	for n := 0; n < x.Order(); n++ {
		g := core.NewGemmBaselineFor(x, n, fig8Rank)
		addBreakdownRow(table, fmt.Sprintf("n=%d B", n), cfg.Trials, func(bd *core.Breakdown) {
			g.Run(t, bd)
		})
		addBreakdownRow(table, fmt.Sprintf("n=%d 1S", n), cfg.Trials, func(bd *core.Breakdown) {
			core.OneStep(x, u, n, core.Options{Threads: t, Breakdown: bd})
		})
		if n > 0 && n < x.Order()-1 {
			addBreakdownRow(table, fmt.Sprintf("n=%d 2S", n), cfg.Trials, func(bd *core.Breakdown) {
				core.TwoStep(x, u, n, core.Options{Threads: t, Breakdown: bd})
			})
		}
	}
	table.Fprint(cfg.Out)
	return table
}

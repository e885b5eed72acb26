package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/fmri"
	"repro/internal/tensor"
)

// fig7Ranks are the CP ranks swept in Figure 7.
var fig7Ranks = []int{10, 15, 20, 25, 30}

// Fig7 regenerates Figure 7: per-iteration CP-ALS time for the Tensor
// Toolbox comparator (explicit-reorder MTTKRP, parallelism only inside
// BLAS) versus this library's hybrid (1-step external / 2-step internal
// modes), sequential and parallel, on the 3-way and 4-way fMRI tensors,
// over ranks C ∈ {10, 15, 20, 25, 30}. The "ours" rows name
// core.MethodTwoStep, which delegates external modes to 1-step: per mode
// it computes the hybrid's MTTKRPs bit for bit, so the rows time the
// paper's per-mode algorithm, not CP-ALS's default dimension-tree sweep.
func Fig7(cfg Config) []*Table {
	cfg = cfg.WithDefaults()
	// Scale the 4-way fMRI dimensions so the entry count scales like the
	// other figures: linear dims shrink by Scale^(1/4).
	p := fmri.PaperParams().Scaled(math.Pow(cfg.Scale, 0.25))
	p.Seed = 99
	ds := fmri.GenerateOn(nil, p)
	x4 := ds.Tensor4
	x3 := ds.Linearize3()

	var tables []*Table
	tables = append(tables, fig7ForTensor(cfg, "3D", x3))
	tables = append(tables, fig7ForTensor(cfg, "4D", x4))
	return tables
}

func fig7ForTensor(cfg Config, name string, x *tensor.Dense) *Table {
	cols := []string{fmt.Sprintf("%s %v series", name, x.Dims())}
	for _, c := range fig7Ranks {
		cols = append(cols, fmt.Sprintf("C=%d", c))
	}
	table := NewTable(fmt.Sprintf("Figure 7 (%s tensor %v): CP-ALS seconds per iteration", name, x.Dims()), cols...)

	type series struct {
		label string
		ttb   bool
		t     int
	}
	sweep := []series{
		{"TTB-substitute seq", true, 1},
		{"TTB-substitute par", true, cfg.MaxThreads},
		{"ours seq", false, 1},
		{"ours par", false, cfg.MaxThreads},
	}
	times := make(map[string][]float64)
	for _, s := range sweep {
		row := make([]float64, 0, len(fig7Ranks))
		for _, c := range fig7Ranks {
			row = append(row, perIterTime(cfg, x, c, s.ttb, s.t))
		}
		times[s.label] = row
		table.Addf(s.label, "%.4f", row...)
	}
	table.Fprint(cfg.Out)

	// Paper headline: speedup of ours-par over TTB-par, growing with C.
	last := len(fig7Ranks) - 1
	fmt.Fprintf(cfg.Out, "OBS fig7 %s: seq speedup ours vs TTB at C=%d = %.2fx; par speedup at C=%d = %.2fx\n\n",
		name,
		fig7Ranks[last], times["TTB-substitute seq"][last]/times["ours seq"][last],
		fig7Ranks[last], times["TTB-substitute par"][last]/times["ours par"][last])
	return table
}

// perIterTime runs a few ALS sweeps and returns the median per-iteration
// time, discarding the first sweep as warmup.
func perIterTime(cfg Config, x *tensor.Dense, rank int, ttb bool, threads int) float64 {
	iters := cfg.Trials + 1
	if iters < 3 {
		iters = 3
	}
	c := cpd.Config{Rank: rank, MaxIters: iters, Tol: -1, Seed: 7, Threads: threads}
	var res *cpd.Result
	var err error
	if ttb {
		res, err = cpd.ReferenceALS(x, c)
	} else {
		c.Method = core.MethodTwoStep // the paper's hybrid, per mode
		res, err = cpd.ALS(x, c)
	}
	if err != nil {
		panic(fmt.Sprintf("bench: fig7 ALS failed: %v", err))
	}
	st := Summarize(res.IterTimes[1:])
	return st.Median.Seconds()
}

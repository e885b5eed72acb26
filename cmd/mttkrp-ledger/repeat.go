package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchFile is the part of BENCHMARK.json the repeatability check reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 by the "exclusive" method of
// Python's statistics.quantiles(values, n=4), the definition the
// acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := float64(i*m - j*4)
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (d[lo]*(4-delta) + d[hi]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// repeatRuns runs two sets of n runs of each workload, with distinct seeds
// in every run, and prints for every end-to-end metric each set's median,
// quartiles, quartile spread and min–max spread as shares of the median,
// and the second median's change in the worse direction, each against the
// metric's bound. It exits non-zero when a spread (setup_s excepted) or a
// change exceeds its bound.
func repeatRuns(cfg *config, only string, n int, stdout, stderr io.Writer) int {
	const benchPath = "BENCHMARK.json" // in the directory the ledger runs from: the repository root
	b, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "mttkrp-ledger: %v\n", err)
		return 1
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintf(stderr, "mttkrp-ledger: %s: %v\n", benchPath, err)
		return 1
	}
	cfg.trace = false
	code := 0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				c := *cfg
				c.seed = int64(1000*s + i + 1)
				jr, err := runChild(w.name, &c, stderr)
				if err != nil || !jr.Correct {
					fmt.Fprintf(stderr, "mttkrp-ledger: %s seed %d: run failed (%v)\n", w.name, c.seed, err)
					return 1
				}
				for name, m := range jr.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "%-14s %-17s %12s %12s %12s %8s %8s %12s %8s %8s %s\n",
			"workload", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "median2", "change", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			var q [2][3]float64
			var spread, span [2]float64
			for s := range sets {
				v := sets[s][m.Name]
				q[s][0], q[s][1], q[s][2] = quartiles(v)
				spread[s] = (q[s][2] - q[s][0]) / q[s][1]
				sorted := sortedCopy(v)
				span[s] = (sorted[len(sorted)-1] - sorted[0]) / q[s][1]
			}
			change := (q[1][1] - q[0][1]) / q[0][1]
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if (m.Name != "setup_s" && math.Max(spread[0], spread[1]) > m.Bound) || change > m.Bound {
				verdict, code = "FAIL", 1
			} else if math.Max(spread[0], spread[1]) > m.Bound/3 && m.Name != "setup_s" {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(stdout, "%-14s %-17s %12.6g %12.6g %12.6g %8.4f %8.4f %12.6g %+8.4f %8.3f %s\n",
				w.name, m.Name, q[0][0], q[0][1], q[0][2], math.Max(spread[0], spread[1]), math.Max(span[0], span[1]), q[1][1], change, m.Bound, verdict)
		}
	}
	return code
}

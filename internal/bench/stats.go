// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Figures 4–8): workload construction, warmup +
// repeated timing with median selection (the paper reports medians of 10
// runs and averages of 100 for KRP), thread sweeps, and fixed-width tables
// whose rows and series match what the paper plots.
package bench

import (
	"sort"
	"time"
)

// Stats summarizes repeated timings.
type Stats struct {
	Median, Mean, Min, Max time.Duration
	N                      int
}

// Measure runs f once for warmup and then trials times, returning timing
// statistics. trials < 1 is treated as 1.
func Measure(trials int, f func()) Stats {
	if trials < 1 {
		trials = 1
	}
	f() // warmup: page in buffers, warm caches
	ds := make([]time.Duration, trials)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	return Summarize(ds)
}

// MeasureTimed is Measure for work that reports its own duration (for
// example stream.Bench.RunOn, which excludes verification).
func MeasureTimed(trials int, f func() time.Duration) Stats {
	if trials < 1 {
		trials = 1
	}
	f()
	ds := make([]time.Duration, trials)
	for i := range ds {
		ds[i] = f()
	}
	return Summarize(ds)
}

// Summarize computes stats over raw durations. The median is the
// nearest-rank p50 (Quantile), the same definition the serving latency
// tables use, so every percentile this package reports is computed one
// way; for even N this is the lower middle element, not an average.
func Summarize(ds []time.Duration) Stats {
	if len(ds) == 0 {
		return Stats{}
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return Stats{
		Median: Quantile(sorted, 0.50),
		Mean:   sum / time.Duration(len(sorted)),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
}

// ThreadCounts returns the sweep 1..max (the paper sweeps 1..12).
func ThreadCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	ts := make([]int, max)
	for i := range ts {
		ts[i] = i + 1
	}
	return ts
}

package bench

import (
	"math"
	"time"
)

// Quantile returns the nearest-rank p-quantile of an ascending-sorted
// duration slice: the smallest element whose rank r satisfies r/N ≥ p,
// i.e. sorted[ceil(p·N)−1], with p clamped to (0, 1]. Summarize's median
// uses it, and the benchmark ledger's own quantile is pinned to it, so
// no two latency tables can disagree by an off-by-one. An empty slice
// reports 0.
func Quantile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

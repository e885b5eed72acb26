package bench

import (
	"testing"
	"time"
)

// seq builds [1ms, 2ms, …, n ms].
func seq(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	return ds
}

// TestQuantileNearestRank is the table the three historical
// implementations disagreed on: N = 1, 2, 4 and 100 are exactly the sizes
// where an averaged median, a floor-index q() and nearest-rank diverge by
// one element.
func TestQuantileNearestRank(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration
	}{
		// N=1: every quantile is the only sample.
		{1, 0.50, 1 * ms},
		{1, 0.95, 1 * ms},
		{1, 0.99, 1 * ms},
		// N=2: nearest-rank p50 is the lower middle (the averaged-median
		// implementation reported 1.5ms here).
		{2, 0.50, 1 * ms},
		{2, 0.95, 2 * ms},
		{2, 0.99, 2 * ms},
		// N=4: ceil(0.95·4)=4 → 4ms (the floor-index q() reported
		// sorted[int(.95·3)] = 3ms — the off-by-one this helper removes).
		{4, 0.50, 2 * ms},
		{4, 0.95, 4 * ms},
		{4, 0.99, 4 * ms},
		// N=100: the textbook case — p50 → 50th, p95 → 95th, p99 → 99th.
		{100, 0.50, 50 * ms},
		{100, 0.95, 95 * ms},
		{100, 0.99, 99 * ms},
		// Clamps.
		{4, 0, 1 * ms},
		{4, 1, 4 * ms},
		{4, 1.5, 4 * ms},
	} {
		if got := Quantile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("Quantile(N=%d, p=%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
}

// TestQuantileUnifiesSummarize pins that Summarize's median is Quantile's
// nearest-rank p50 — the point of the unification.
func TestQuantileUnifiesSummarize(t *testing.T) {
	for _, n := range []int{1, 2, 4, 100} {
		ds := seq(n)
		if st := Summarize(ds); st.Median != Quantile(ds, 0.5) {
			t.Errorf("N=%d: Summarize median %v != Quantile p50 %v", n, st.Median, Quantile(ds, 0.5))
		}
	}
}

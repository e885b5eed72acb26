// Package stream implements the memory-bandwidth reference used in the
// paper's Figure 4: a read-scale-write sweep (b = α·a) over a buffer the
// size of the KRP output matrix, following McCalpin's STREAM "Scale"
// kernel. The KRP algorithms are memory-bound, so their time is compared
// against this roofline.
package stream

import (
	"errors"
	"time"

	"repro/internal/parallel"
)

// Bench holds the two buffers of a scale benchmark.
type Bench struct {
	a, b  []float64
	alpha float64
}

// New allocates a scale benchmark over n-element buffers, initializing the
// source so pages are faulted in before timing.
func New(n int) *Bench {
	s := &Bench{a: make([]float64, n), b: make([]float64, n), alpha: 3.0}
	for i := range s.a {
		s.a[i] = float64(i%977) * 0.5
	}
	return s
}

// Len returns the buffer length.
func (s *Bench) Len() int { return len(s.a) }

// Bytes returns the memory traffic per run (one read + one write).
func (s *Bench) Bytes() int64 { return int64(len(s.a)) * 16 }

// RunOn performs b = α·a with t workers of p (pool or lease) and returns
// the elapsed wall time. Running on the caller's executor lets the
// roofline sweep share a worker team with the kernels it calibrates — and,
// under a lease, respect a serving budget. The requested width resolves
// through the executor (t <= 0 selects its natural width).
func (s *Bench) RunOn(p parallel.Executor, t int) time.Duration {
	t = parallel.Clamp(p.Effective(t), len(s.a))
	start := time.Now()
	p.For(t, len(s.a), func(_, lo, hi int) {
		a, b := s.a[lo:hi], s.b[lo:hi]
		for i := range a {
			b[i] = s.alpha * a[i]
		}
	})
	return time.Since(start)
}

// Verify checks the last RunOn produced the expected values.
func (s *Bench) Verify() error {
	for i := range s.a {
		if s.b[i] != s.alpha*s.a[i] {
			return errors.New("stream: verification failed")
		}
	}
	return nil
}

// BandwidthGBps converts a RunOn duration to achieved bandwidth in GB/s.
func (s *Bench) BandwidthGBps(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(s.Bytes()) / d.Seconds() / 1e9
}

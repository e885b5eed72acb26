package bench

import (
	"io"
	"math"

	"repro/internal/parallel"
)

// Config controls figure regeneration.
type Config struct {
	// Scale shrinks the paper's problem sizes (1.0 = paper scale, which
	// needs a large-memory server; the default 0.01 runs on a laptop).
	// Scale multiplies the tensor entry count; per-mode dimensions follow.
	Scale float64
	// MaxThreads is the top of the thread sweep (the paper uses 12).
	MaxThreads int
	// Trials is the number of timed repetitions per point (median
	// reported; the paper uses 10 for MTTKRP and 100 for KRP).
	Trials int
	// Out receives the tables.
	Out io.Writer
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = parallel.DefaultThreads()
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	return c
}

// KRPRows returns the Figure 4 output row count J ≈ 2e7 scaled.
func (c Config) KRPRows() int {
	j := int(math.Round(2e7 * c.Scale))
	if j < 64 {
		j = 64
	}
	return j
}

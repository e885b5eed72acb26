// Kernel-package fixture for the effectiveresolve analyzer: the package
// path ends in internal/core, so the Workers() and raw-Threads rules
// apply in addition to the global GOMAXPROCS rule.
package core

import (
	"runtime"

	"repro/internal/parallel"
)

type Options struct {
	Threads int
}

func BadProcs() int {
	return runtime.GOMAXPROCS(0) // want `runtime.GOMAXPROCS read outside the parallel runtime`
}

func BadWorkers(p *parallel.Pool, n int) {
	t := p.Workers() // want `Workers\(\) reports the current team width`
	p.For(t, n, func(w, lo, hi int) {})
}

func BadRawThreads(p *parallel.Pool, opts Options, n int) {
	p.For(opts.Threads, n, func(w, lo, hi int) {}) // want `raw Threads field passed as a region width`
	bufs := make([][]float64, opts.Threads)        // want `raw Threads field sizes a buffer set`
	_ = bufs
	rs := parallel.Split(n, opts.Threads) // want `raw Threads field passed as a region width`
	_ = rs
	lo, hi := parallel.BlockRange(n, opts.Threads, 0) // want `raw Threads field passed as a region width`
	_, _ = lo, hi
}

func GoodResolved(p *parallel.Pool, opts Options, n int) {
	t := parallel.Clamp(parallel.EffectiveOn(p, opts.Threads), n)
	bufs := make([][]float64, t)
	_ = bufs
	p.For(t, n, func(w, lo, hi int) {})
}

func GoodEffective(p *parallel.Pool, opts Options, n int) {
	t := parallel.Effective(opts.Threads)
	p.For(t, n, func(w, lo, hi int) {})
}

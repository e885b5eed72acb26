package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/simd"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// Layer probes. Each times calls into one layer's public functions at the
// workload's own shapes; the traced run uses them for the layers the
// workload's operations do not report on their own.

// best returns the shortest of reps timings of f.
func best(reps int, f func()) time.Duration {
	var b time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < b {
			b = d
		}
	}
	return b
}

// streamProbe measures the repository's STREAM reference (internal/stream,
// the Scale kernel b = α·a) on arrays of 4 × LLC each, the bandwidth the
// Fig. 4 claim compares KRP formation against.
func streamProbe(pool *parallel.Pool, tiny bool) (gbps float64, arrayBytes int64) {
	n := int(4 * llcBytes() / 8)
	if tiny {
		n = 1 << 16
	}
	s := stream.New(n)
	d := best(3, func() { s.RunOn(pool, 0) })
	if s.Verify() != nil {
		return 0, 0
	}
	return s.BandwidthGBps(d), int64(n) * 8
}

// simdProbe is the single-core peak of the GEMM micro-kernel.
func simdProbe(tiny bool) float64 {
	const kc = 256
	ap := make([]float64, 4*kc)
	bp := make([]float64, 4*kc)
	for i := range ap {
		ap[i], bp[i] = float64(i%7)*0.25, float64(i%5)*0.5
	}
	var acc [16]float64
	calls := 200000
	if tiny {
		calls = 200
	}
	d := best(3, func() {
		for i := 0; i < calls; i++ {
			simd.Gemm4x4(kc, ap, bp, &acc)
		}
	})
	return float64(calls) * 2 * 16 * kc / d.Seconds() / 1e9
}

// dispatchProbe is the median cost of one empty parallel region on pool.
func dispatchProbe(pool *parallel.Pool) float64 {
	w := pool.Workers()
	body := func(int, int, int) {}
	samples := make([]float64, 9)
	for i := range samples {
		const n = 200
		t0 := time.Now()
		for j := 0; j < n; j++ {
			pool.For(w, w, body)
		}
		samples[i] = float64(time.Since(t0).Nanoseconds()) / n / 1e3
	}
	return median(samples)
}

// withTiles applies the tiling the daemon applies to a mapped tensor, so a
// direct call on a mapped file times the same kernel a served one runs.
func withTiles(o core.Options, x *tensor.Dense, mode int) core.Options {
	if x.Mapped() {
		o.TileRows = core.AutoTileRows(x.Dims(), mode, 0)
	}
	return o
}

// kernelLayers holds the kernel-side probe results for one tensor.
type kernelLayers struct {
	baselineRatio, blasGflops, krpGBps, scalingEff, usefulGflops, flopsPerByte float64
}

// kernelProbe measures, on tensor x with factors u: every mode's MTTKRP
// against the Fig. 5 GEMM baseline of the same shape, the mode-0 GEMM rate,
// KRP formation bandwidth on the mode-0 operands, and the speed-up of one
// all-mode pass from one worker to the whole pool.
func kernelProbe(pool *parallel.Pool, x *tensor.Dense, u []mat.View) kernelLayers {
	var kl kernelLayers
	c := u[0].C
	n := x.Order()
	opts := core.Options{Pool: pool}
	dsts := make([]mat.View, n)
	for m := range dsts {
		dsts[m] = mat.NewDense(x.Dim(m), c)
	}
	pass := func(o core.Options) {
		for m := 0; m < n; m++ {
			core.ComputeInto(dsts[m], core.MethodAuto, x, u, m, withTiles(o, x, m))
		}
	}
	pass(opts)
	tN := best(2, func() { pass(opts) })

	var base time.Duration
	for m := 0; m < n; m++ {
		g := core.NewGemmBaselineFor(x, m, c)
		d := best(2, func() { g.Run(0, nil) })
		if m == 0 {
			kl.blasGflops = 2 * float64(x.Dim(0)) * float64(x.SizeOther(0)) * float64(c) / d.Seconds() / 1e9
		}
		base += d
		runtime.GC() // the baseline operands are tensor-sized
	}
	kl.baselineRatio = ratio(tN.Seconds(), base.Seconds())

	var ops []mat.View
	for k := n - 1; k > 0; k-- {
		ops = append(ops, u[k])
	}
	out := mat.NewDense(krp.NumRows(ops), c)
	ws := pool.Acquire()
	d := best(3, func() { krp.ParallelOn(pool, ws, 0, ops, out) })
	ws.Release()
	kl.krpGBps = float64(len(out.Data)) * 8 / d.Seconds() / 1e9

	one := parallel.NewPool(1)
	o1 := opts
	o1.Pool = one
	t1 := best(1, func() { pass(o1) })
	one.Close()
	kl.scalingEff = ratio(t1.Seconds(), float64(pool.Workers())*tN.Seconds())

	size := float64(x.Size())
	var flops, bytes float64
	for m := 0; m < n; m++ {
		flops += 2 * size * float64(c)
		bytes += 8 * size
		for k := 0; k < n; k++ {
			bytes += 8 * float64(x.Dim(k)*c) // factor rows read, plus the output for k = m
		}
	}
	kl.usefulGflops = flops / tN.Seconds() / 1e9
	kl.flopsPerByte = flops / bytes
	return kl
}

// cpdProbe runs a short CP-ALS on x and returns the solver's own time per
// sweep (Gram matrices, solve, normalization: the sweep minus its MTTKRPs)
// and the MTTKRP share of the sweep.
func cpdProbe(pool *parallel.Pool, x *tensor.Dense, rank int, seed int64) (selfMs, mttkrpShare float64) {
	bd := &core.Breakdown{}
	res, err := cpd.ALS(x, cpd.Config{Rank: rank, MaxIters: 3, Tol: -1, Pool: pool, Seed: seed, Breakdown: bd})
	if err != nil {
		return 0, 0
	}
	var sweep time.Duration
	for _, d := range res.IterTimes {
		sweep += d
	}
	return ms(sweep-bd.Total()) / float64(len(res.IterTimes)), ratio(bd.Total().Seconds(), sweep.Seconds())
}

// commonProbes sets the host-level per-layer metrics every workload reports.
func commonProbes(r *result, pool *parallel.Pool, kl kernelLayers, tiny bool, logf func(string, ...any)) {
	gbps, arr := streamProbe(pool, tiny)
	logf("stream: 2 arrays of %d MiB each (LLC %d MiB)", arr>>20, llcBytes()>>20)
	peak := simdProbe(tiny)
	r.set("stream.scale_gbps", gbps)
	r.set("simd.gemm4x4_gflops", peak)
	r.set("parallel.dispatch_us", dispatchProbe(pool))
	r.set("core.gemm_baseline_ratio", kl.baselineRatio)
	r.set("core.useful_gflops", kl.usefulGflops)
	r.set("core.flops_per_byte", kl.flopsPerByte)
	r.set("blas.gemm_gflops", kl.blasGflops)
	r.set("blas.gemm_peak_ratio", ratio(kl.blasGflops, peak*float64(pool.Workers())))
	r.set("krp.gbps", kl.krpGBps)
	r.set("krp.stream_ratio", ratio(kl.krpGBps, gbps))
	r.set("parallel.scaling_eff", kl.scalingEff)
}

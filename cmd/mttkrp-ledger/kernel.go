package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/fmri"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// phaseSnap is a Breakdown reading: every phase and the total.
type phaseSnap struct {
	phases [6]time.Duration
	total  time.Duration
}

func snap(bd *core.Breakdown) phaseSnap {
	var s phaseSnap
	for i, p := range core.Phases() {
		s.phases[i] = bd.Get(p)
	}
	s.total = bd.Total()
	return s
}

// phaseNames are the span names of core.Phases(), in that order.
var phaseNames = []string{"core.gemm", "core.gemv", "core.krp_full", "core.krp_lr", "core.reduce", "core.reorder"}

// deltaSpans records the phases between two readings as children of
// parent and returns the MTTKRP total between them.
func deltaSpans(tr *tracer, parent int, a, b phaseSnap, acc map[core.Phase]float64) time.Duration {
	durs := make([]time.Duration, len(phaseNames))
	for i, p := range core.Phases() {
		durs[i] = b.phases[i] - a.phases[i]
		acc[p] += ms(durs[i])
	}
	tr.children(parent, phaseNames, durs)
	return b.total - a.total
}

// kernelRun is the state a kernel workload's measurement leaves for its
// traced part: the timed sweeps, split into traced and untraced ones.
type kernelRun struct {
	plain, traced []float64 // sweep times, ms
	gaps          []float64 // ledger time between operations, ms
	phases        map[core.Phase]float64
	mttkrp, self  float64 // summed over traced sweeps, ms
	tr            *tracer
}

// kernelEnd sets the end-to-end metrics of a kernel workload, whose
// operations are sweeps.
func kernelEnd(r *result, out io.Writer, name string, k *kernelRun, setups []float64) {
	s := sortedCopy(k.plain)
	p10 := quantile(s, 0.1)
	r.set("setup_s", median(setups))
	r.set("peak_rss_mib", peakRSSMiB())
	r.set("op_p10_ms", p10)
	r.set("throughput_per_s", 1e3/p10)
	fmt.Fprintf(out, "# %s: %d sweeps: p50 %.3f ms, p75 %.3f ms\n", name, len(s), quantile(s, 0.5), quantile(s, 0.75))
}

// kernelTrace sets a kernel workload's per-layer metrics.
func kernelTrace(cfg *config, out io.Writer, r *result, name string, k *kernelRun, pool *parallel.Pool, x *tensor.Dense, u, want []mat.View, work string) error {
	logf := func(format string, args ...any) { fmt.Fprintf(out, "# "+format+"\n", args...) }
	n := float64(len(k.traced))
	for p := range k.phases {
		k.phases[p] /= n
	}
	setCore(r, k.phases, k.mttkrp/n)
	r.set("trace.overhead_ratio", ratio(median(k.traced), median(k.plain))-1)
	r.set("bench.gen_late_p99_ms", quantile(sortedCopy(k.gaps), 0.99))
	r.set("bench.inflight_max", 1)

	// The daemon does not serve these workloads; their serving metrics
	// come from serving this tensor by reference, one mode at a time.
	p, err := byRefProbe(filepath.Join(work, "probe"), pool, x, u, want)
	if err != nil {
		return err
	}
	for _, a := range p.arr {
		if a.err != nil {
			r.fail(1, "%v", a.err)
		}
	}
	servingMetrics(r, p.arr, p.before, p.after, p.direct)
	r.set("transport.refcache_hit_ratio", p.refcacheHitRatio())
	r.set("tensor.map_ms", p.mapMs)
	r.set("tensor.tile_rows", float64(core.AutoTileRows(x.Dims(), 0, 0)))
	commonProbes(r, pool, kernelProbe(pool, x, u), cfg.tiny, logf)
	return finishTrace(cfg, out, r, k.tr, name)
}

// oracle checks MethodAuto against the explicit-reorder baseline, an
// independent algorithm, on every mode and returns the reference results.
func oracle(r *result, pool *parallel.Pool, x *tensor.Dense, u []mat.View) []mat.View {
	want := make([]mat.View, x.Order())
	for m := range want {
		want[m] = core.ComputeInto(mat.NewDense(x.Dim(m), u[0].C), core.MethodReorder, x, u, m, core.Options{Pool: pool})
		got := core.ComputeInto(mat.NewDense(x.Dim(m), u[0].C), core.MethodAuto, x, u, m, core.Options{Pool: pool})
		if resultHook != nil {
			resultHook(got)
		}
		if e := relErr(got, want[m]); !(e <= maxRelErr) {
			r.fail(1, "mode %d: auto vs reorder relative error %g", m, e)
		}
	}
	return want
}

func randomFactors(rng *rand.Rand, dims []int, rank int) []mat.View {
	u := make([]mat.View, len(dims))
	for k, d := range dims {
		u[k] = mat.RandomDense(d, rank, rng)
	}
	return u
}

// freeAndReset returns set-up garbage to the OS and restarts the peak
// resident set, so peak_rss_mib belongs to the timed phase.
func freeAndReset() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// runCPFMRI is CP-ALS at rank 25 on the fMRI-shaped tensor of the paper's
// application, scaled by 0.5 (113×30×100×100, 258 MiB). The timed part
// repeats identical CP-ALS runs of 8 sweeps from the same initial guess
// until the run's time is spent; each run's first sweep (which also pays
// the solver's set-up) is not a sample.
func runCPFMRI(cfg *config, out io.Writer) (*result, error) {
	r := newResult()
	rank, epochLen := 25, 8
	if cfg.tiny {
		rank, epochLen = 4, 3
	}
	work, err := cfg.tempDir("cp-fmri")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var (
		pool   *parallel.Pool
		x      *tensor.Dense
		setups []float64
	)
	for moreSetups(setups) {
		if pool != nil {
			pool.Close()
			x = nil
			runtime.GC()
		}
		t0 := time.Now()
		pool = parallel.NewPool(0)
		x = fmriInput(pool, cfg.seed, cfg.tiny)
		if _, err := cpd.ALS(x, cpd.Config{Rank: rank, MaxIters: 2, Tol: -1, Pool: pool, Seed: cfg.seed}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer pool.Close()
	fmt.Fprintf(out, "# input cp-fmri dims=%v fnv1a=%016x\n", x.Dims(), fingerprint(x.Data()))
	u := randomFactors(rand.New(rand.NewSource(cfg.seed)), x.Dims(), rank)
	want := oracle(r, pool, x, u)
	freeAndReset()

	k := &kernelRun{phases: map[core.Phase]float64{}, tr: newTracer(1024)}
	fit0 := math.NaN()
	start := time.Now()
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	for epoch := 0; ; epoch++ {
		traced := cfg.trace && epoch%2 == 1
		var bd *core.Breakdown
		if traced {
			bd = &core.Breakdown{}
		}
		stamps := make([]time.Time, 1, epochLen+1)
		snaps := make([]phaseSnap, 0, epochLen)
		stamps[0] = time.Now()
		res, err := cpd.ALS(x, cpd.Config{Rank: rank, MaxIters: epochLen, Tol: -1, Pool: pool, Seed: cfg.seed, Breakdown: bd,
			PhaseNotify: func() {
				stamps = append(stamps, time.Now())
				if bd != nil {
					snaps = append(snaps, snap(bd))
				}
			}})
		if err != nil {
			return nil, err
		}
		r.attempted += epochLen
		if epoch == 0 {
			fit0 = res.Fit
		}
		if !(res.Fit > 0 && res.Fit <= 1) || math.Abs(res.Fit-fit0) > maxRelErr*math.Abs(fit0) {
			r.fail(epochLen, "CP-ALS run %d: fit %v, first run %v", epoch, res.Fit, fit0)
		}
		for s := 1; s < epochLen; s++ {
			d := ms(stamps[s+1].Sub(stamps[s]))
			k.gaps = append(k.gaps, d-ms(res.IterTimes[s]))
			if !traced {
				k.plain = append(k.plain, d)
				continue
			}
			k.traced = append(k.traced, d)
			root := k.tr.add("sweep", stamps[s], stamps[s+1], -1, int64(len(k.traced)))
			sweep := k.tr.children(root, []string{"cpd.sweep"}, []time.Duration{res.IterTimes[s]})[0]
			mt := snaps[s].total - snaps[s-1].total
			kern := k.tr.children(sweep, []string{"core.mttkrp"}, []time.Duration{mt})[0]
			deltaSpans(k.tr, kern, snaps[s-1], snaps[s], k.phases)
			k.mttkrp += ms(mt)
			k.self += ms(res.IterTimes[s] - mt)
		}
		elapsed := time.Since(start)
		perEpoch := elapsed / time.Duration(epoch+1)
		if elapsed+perEpoch > deadline && (!cfg.trace || epoch >= 1) {
			break
		}
	}
	fmt.Fprintf(out, "# cp-fmri: fit %.6f after %d sweeps\n", fit0, epochLen)
	if !cfg.trace {
		kernelEnd(r, out, "cp-fmri", k, setups)
		return r, nil
	}
	n := float64(len(k.traced))
	r.set("cpd.self_ms", k.self/n)
	r.set("cpd.mttkrp_share", ratio(k.mttkrp, k.mttkrp+k.self))
	return r, kernelTrace(cfg, out, r, "cp-fmri", k, pool, x, u, want, work)
}

// runOrder6 times all-mode MTTKRP sweeps (core.ComputeInto, MethodAuto,
// rank 25, retained destinations, one pool) on an 8×20×20×20×20×8 tensor.
// Its small external modes make full-KRP formation a visible share of the
// sweep and the per-worker KRP blocks the largest allocation.
func runOrder6(cfg *config, out io.Writer) (*result, error) {
	r := newResult()
	work, err := cfg.tempDir("mttkrp-order6")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var (
		pool   *parallel.Pool
		x      *tensor.Dense
		u      []mat.View
		dsts   []mat.View
		setups []float64
	)
	for moreSetups(setups) {
		if pool != nil {
			pool.Close()
			x, dsts = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		pool = parallel.NewPool(0)
		x, u = order6Input(cfg.seed, cfg.tiny)
		dsts = make([]mat.View, x.Order())
		for m := range dsts {
			dsts[m] = mat.NewDense(x.Dim(m), u[0].C)
			core.ComputeInto(dsts[m], core.MethodAuto, x, u, m, core.Options{Pool: pool})
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer pool.Close()
	dims, rank := x.Dims(), u[0].C
	fmt.Fprintf(out, "# input mttkrp-order6 dims=%v fnv1a=%016x\n", dims, order6Fingerprint(x, u))
	want := oracle(r, pool, x, u)
	freeAndReset()

	k := &kernelRun{phases: map[core.Phase]float64{}, tr: newTracer(4096)}
	start := time.Now()
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	last := time.Time{}
	for s := 0; ; s++ {
		traced := cfg.trace && s%2 == 1
		opts := core.Options{Pool: pool}
		var bd *core.Breakdown
		if traced {
			bd = &core.Breakdown{}
			opts.Breakdown = bd
		}
		var calls [6][2]time.Time
		var snaps [7]phaseSnap
		t0 := time.Now()
		for m := range dims {
			calls[m][0] = time.Now()
			core.ComputeInto(dsts[m], core.MethodAuto, x, u, m, opts)
			calls[m][1] = time.Now()
			if bd != nil {
				snaps[m+1] = snap(bd)
			}
		}
		t1 := time.Now()
		r.attempted++
		if !last.IsZero() {
			k.gaps = append(k.gaps, ms(t0.Sub(last)))
		}
		d := ms(t1.Sub(t0))
		if traced {
			k.traced = append(k.traced, d)
			root := k.tr.add("sweep", t0, t1, -1, int64(s))
			for m := range dims {
				call := k.tr.add("core.mttkrp", calls[m][0], calls[m][1], root, int64(s))
				k.mttkrp += ms(deltaSpans(k.tr, call, snaps[m], snaps[m+1], k.phases))
			}
		} else {
			k.plain = append(k.plain, d)
		}
		for m := range dims {
			if resultHook != nil {
				resultHook(dsts[m])
			}
			if e := relErr(dsts[m], want[m]); !(e <= maxRelErr) {
				r.fail(1, "sweep %d mode %d: relative error %g", s, m, e)
				break
			}
		}
		last = time.Now()
		if last.Sub(start) > deadline && (!cfg.trace || s >= 1) {
			break
		}
	}
	if !cfg.trace {
		kernelEnd(r, out, "mttkrp-order6", k, setups)
		return r, nil
	}
	selfMs, share := cpdProbe(pool, x, rank, cfg.seed)
	r.set("cpd.self_ms", selfMs)
	r.set("cpd.mttkrp_share", share)
	return r, kernelTrace(cfg, out, r, "mttkrp-order6", k, pool, x, u, want, work)
}

// fmriInput is the cp-fmri tensor: the paper's fMRI shape scaled by 0.5.
func fmriInput(pool *parallel.Pool, seed int64, tiny bool) *tensor.Dense {
	p := fmri.PaperParams().Scaled(0.5)
	if tiny {
		p = fmri.PaperParams().Scaled(0.05)
	}
	p.Seed = seed
	return fmri.GenerateOn(pool, p).Tensor4
}

// order6Input is the mttkrp-order6 tensor and its rank-25 factors.
func order6Input(seed int64, tiny bool) (*tensor.Dense, []mat.View) {
	dims, rank := []int{8, 20, 20, 20, 20, 8}, 25
	if tiny {
		dims, rank = []int{3, 4, 4, 4, 4, 3}, 4
	}
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Random(rng, dims...)
	return x, randomFactors(rng, dims, rank)
}

func order6Fingerprint(x *tensor.Dense, u []mat.View) uint64 {
	parts := [][]float64{x.Data()}
	for _, m := range u {
		parts = append(parts, m.Data)
	}
	return fingerprint(parts...)
}

package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// ServeLoadConfig parameterizes the serving load generator.
type ServeLoadConfig struct {
	// Dims and Rank define the MTTKRP problem every request computes.
	Dims []int
	Rank int
	// Mode is the MTTKRP mode (defaults to an internal mode when the
	// order allows, the harder case).
	Mode int
	// Conc is the list of concurrency levels to sweep (submitters firing
	// back-to-back requests). Default {1, 4, 16}.
	Conc []int
	// Requests is the total request count per concurrency level (split
	// across submitters). Default 64.
	Requests int
	// Workers sizes the server pool (0 = GOMAXPROCS).
	Workers int
	// Mix, when non-empty, switches to a mixed-workload run: a weighted
	// class mix like "small:8,large:1" (classes small, medium, large,
	// scaled from Dims/Rank) driven through cost-aware admission,
	// tabulating per-class p50/p95/p99 — the convoy/tail-latency
	// measurement.
	Mix string
	// Sparse switches the generated workload to COO tensors at Density,
	// driving the nnz-partitioned sparse kernel and nnz-priced admission.
	// Fusion is dense-only, so sparse runs report a zero fuse hit.
	Sparse bool
	// Density is the fill fraction of the sparse tensors (default 0.01);
	// only meaningful with Sparse.
	Density float64
	// NoFusion disables batch-level KRP fusion on the served side (the
	// -fuse=off half of the A/B); the fuse-hit column then reads 0.
	NoFusion bool
	// NoSIMD forces the scalar reference kernels for the duration of the
	// run (the -simd=off half of the A/B). The swap is process-global and
	// happens before any load starts; the previous dispatch is restored
	// on return.
	NoSIMD bool
	// NUMA enables topology-aware placement on the served side (the
	// -numa=on half of the A/B): the server pool is built over the
	// detected host topology, so leases pack into placement domains,
	// worker buffers are first-touched on their owning domain, and the
	// budget split prefers filling one domain before spilling. On a
	// single-domain host this is the flat model exactly; results are
	// bit-identical either way. The naive per-request-pool baseline stays
	// flat in both halves.
	NUMA bool
	// Out receives OBS commentary lines (may be nil).
	Out func(format string, args ...any)
}

// topology resolves the served side's placement topology: the detected
// host topology with NUMA on, nil (flat) otherwise.
func (c *ServeLoadConfig) topology() *parallel.Topology {
	if c.NUMA {
		return parallel.DetectTopology()
	}
	return nil
}

// serveLoadResult aggregates one measured series.
type serveLoadResult struct {
	throughput    float64 // requests per second
	p50, p95, p99 time.Duration
}

func (c *ServeLoadConfig) withDefaults() {
	if len(c.Dims) == 0 {
		c.Dims = []int{48, 40, 36}
	}
	if c.Rank <= 0 {
		c.Rank = 16
	}
	if c.Mode <= 0 || c.Mode >= len(c.Dims) {
		c.Mode = len(c.Dims) / 2
	}
	if len(c.Conc) == 0 {
		c.Conc = []int{1, 4, 16}
	}
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if c.Density <= 0 || c.Density > 1 {
		c.Density = 0.01
	}
	if c.Out == nil {
		c.Out = func(string, ...any) {}
	}
}

// loadTensor generates the workload tensor for one class: dense, or COO
// at the configured density when the sparse workload is selected.
func loadTensor(rng *rand.Rand, sparse bool, density float64, dims ...int) tensor.Interface {
	if sparse {
		return tensor.RandomSparse(rng, density, dims...)
	}
	return tensor.Random(rng, dims...)
}

// layoutTag names the workload layout in table titles and OBS lines (x
// may be nil when the workload spans several tensors of different nnz).
func layoutTag(sparse bool, density float64, x tensor.Interface) string {
	if !sparse {
		return "dense"
	}
	if x == nil {
		return fmt.Sprintf("sparse d=%g", density)
	}
	return fmt.Sprintf("sparse d=%g (nnz %d)", density, x.NNZ())
}

// ServeLoad drives the serving runtime and the naive per-request-pool
// pattern with identical load — Conc concurrent submitters, Requests
// same-shape MTTKRP requests — and tabulates aggregate throughput and
// latency percentiles. It is the reproducible form of the serving
// acceptance comparison (EXPERIMENTS.md, "Serving throughput"). With a
// Mix, it instead drives the mixed workload (see ServeLoadConfig.Mix).
func ServeLoad(cfg ServeLoadConfig) (*Table, error) {
	cfg.withDefaults()
	if cfg.NoSIMD {
		prev := simd.Active()
		simd.Use(simd.Scalar())
		defer simd.Use(prev)
	}
	if cfg.Mix != "" {
		return serveMixLoad(cfg)
	}

	rng := rand.New(rand.NewSource(99))
	x := loadTensor(rng, cfg.Sparse, cfg.Density, cfg.Dims...)
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), cfg.Rank, rng)
	}

	tb := NewTable(
		fmt.Sprintf("Serving throughput — %s MTTKRP %v rank %d mode %d, %d requests per level, fusion %s, simd %s, numa %s",
			layoutTag(cfg.Sparse, cfg.Density, x), cfg.Dims, cfg.Rank, cfg.Mode, cfg.Requests, onOff(!cfg.NoFusion), onOff(!cfg.NoSIMD), onOff(cfg.NUMA)),
		"conc", "served req/s", "naive req/s", "speedup",
		"served p50 ms", "served p95 ms", "served p99 ms",
		"naive p50 ms", "naive p95 ms", "naive p99 ms", "fuse hit")

	for _, conc := range cfg.Conc {
		served, st := runServed(cfg, x, u, conc)
		naive := runNaive(cfg, x, u, conc)
		speedup := served.throughput / naive.throughput
		tb.Add(fmt.Sprintf("%d", conc),
			fmt.Sprintf("%.1f", served.throughput),
			fmt.Sprintf("%.1f", naive.throughput),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.3f", ms(served.p50)), fmt.Sprintf("%.3f", ms(served.p95)), fmt.Sprintf("%.3f", ms(served.p99)),
			fmt.Sprintf("%.3f", ms(naive.p50)), fmt.Sprintf("%.3f", ms(naive.p95)), fmt.Sprintf("%.3f", ms(naive.p99)),
			fuseHit(st))
		cfg.Out("OBS serve conc=%d: %.1f req/s served vs %.1f req/s naive pools (%.2fx); %d/%d batches fused, ~%.0f KRP kflops saved\n",
			conc, served.throughput, naive.throughput, speedup, st.Fused, st.Batches, st.FusedSavedFlops/1e3)
	}
	return tb, nil
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// fuseHit formats the per-batch fusion hit rate of one measured run: the
// fraction of executed batches that ran on a shared KRP plan.
func fuseHit(st serve.Stats) string {
	if st.Batches == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(st.Fused)/float64(st.Batches))
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// MixEntry is one class of a heterogeneous serving workload.
type MixEntry struct {
	Name   string // "small", "medium" or "large"
	Weight int    // relative share of requests
}

// ParseMix parses a workload mix spec like "small:8,large:1" into weighted
// class entries.
func ParseMix(s string) ([]MixEntry, error) {
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want name:weight", part)
		}
		w, err := strconv.Atoi(weightStr)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("mix entry %q: weight must be a positive integer", part)
		}
		if _, _, err := mixShape(name, []int{8, 8, 8}, 8); err != nil {
			return nil, err
		}
		mix = append(mix, MixEntry{Name: name, Weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix spec")
	}
	return mix, nil
}

// mixShape scales the base problem down to a named class: large is the
// base shape, medium roughly halves every dimension and the rank, small
// roughly quarters them — spanning the cost range the admission policy
// must arbitrate.
func mixShape(name string, dims []int, rank int) ([]int, int, error) {
	scale := func(div, floor int) []int {
		out := make([]int, len(dims))
		for i, d := range dims {
			out[i] = d / div
			if out[i] < floor {
				out[i] = floor
			}
		}
		return out
	}
	switch strings.ToLower(name) {
	case "large":
		return dims, rank, nil
	case "medium":
		r := rank / 2
		if r < 4 {
			r = 4
		}
		return scale(2, 6), r, nil
	case "small":
		r := rank / 4
		if r < 2 {
			r = 2
		}
		return scale(4, 4), r, nil
	}
	return nil, 0, fmt.Errorf("unknown mix class %q (want small, medium or large)", name)
}

// mixClass is one instantiated workload class.
type mixClass struct {
	name string
	x    tensor.Interface
	u    []mat.View
	mode int
	rank int
}

// classSequence draws a deterministic weighted class index per request, so
// reruns see the identical arrival sequence.
func classSequence(mix []MixEntry, n int, seed int64) []int {
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, n)
	for i := range seq {
		p := rng.Intn(total)
		for c, m := range mix {
			if p -= m.Weight; p < 0 {
				seq[i] = c
				break
			}
		}
	}
	return seq
}

// serveMixLoad is the mixed-workload run: a weighted small/large arrival
// sequence driven through cost-aware admission (aging queue, cost-share
// budgets), tabulated per class. Small-request p99 is
// the convoy fingerprint; large-request throughput bounds the cost of
// keeping it low.
func serveMixLoad(cfg ServeLoadConfig) (*Table, error) {
	mix, err := ParseMix(cfg.Mix)
	if err != nil {
		return nil, fmt.Errorf("bench: -mix: %w", err)
	}
	rng := rand.New(rand.NewSource(99))
	classes := make([]mixClass, len(mix))
	for i, m := range mix {
		dims, rank, err := mixShape(m.Name, cfg.Dims, cfg.Rank)
		if err != nil {
			return nil, err
		}
		x := loadTensor(rng, cfg.Sparse, cfg.Density, dims...)
		u := make([]mat.View, x.Order())
		for k := range u {
			u[k] = mat.RandomDense(x.Dim(k), rank, rng)
		}
		mode := cfg.Mode
		if mode >= x.Order() {
			mode = x.Order() / 2
		}
		classes[i] = mixClass{name: m.Name, x: x, u: u, mode: mode, rank: rank}
	}

	tb := NewTable(
		fmt.Sprintf("Mixed serving load — %s base %v rank %d, mix %s, %d requests per level, fusion %s, simd %s, numa %s",
			layoutTag(cfg.Sparse, cfg.Density, nil), cfg.Dims, cfg.Rank, cfg.Mix, cfg.Requests, onOff(!cfg.NoFusion), onOff(!cfg.NoSIMD), onOff(cfg.NUMA)),
		"conc", "class", "req/s", "p50 ms", "p95 ms", "p99 ms")

	for _, conc := range cfg.Conc {
		seq := classSequence(mix, cfg.Requests, int64(conc))
		perClass, wall, st := runMix(cfg, classes, seq, conc)
		for c, lats := range perClass {
			if len(lats) == 0 {
				continue
			}
			r := summarize(lats, wall)
			tb.Add(fmt.Sprintf("%d", conc), classes[c].name,
				fmt.Sprintf("%.1f", r.throughput),
				fmt.Sprintf("%.3f", ms(r.p50)), fmt.Sprintf("%.3f", ms(r.p95)), fmt.Sprintf("%.3f", ms(r.p99)))
		}
		cfg.Out("OBS mix conc=%d: peak queue %d, max queue wait %.3f ms, %d aged reorders, %d/%d batches fused\n",
			conc, st.PeakQueued, st.MaxQueueWaitMs, st.Reordered, st.Fused, st.Batches)
	}
	return tb, nil
}

// runMix drives one concurrency level: conc submitters pull the shared
// arrival sequence and submit each request's class problem, recording
// latency per class. It returns the scheduler's counter snapshot taken
// after the load drains (queue-wait highs and aging reorders).
func runMix(cfg ServeLoadConfig, classes []mixClass, seq []int, conc int) ([][]time.Duration, time.Duration, serve.Stats) {
	srv := serve.New(serve.Config{Workers: cfg.Workers, DisableFusion: cfg.NoFusion, Topology: cfg.topology()})
	defer srv.Close()
	// Warm every class's shape-keyed workspace set (and the scheduler's
	// service-rate estimate) before timing.
	for _, c := range classes {
		if err := srv.SubmitMTTKRP(serve.MTTKRPRequest{X: c.x, Factors: c.u, Mode: c.mode}).Err(); err != nil {
			panic(err)
		}
	}
	latencies := make([]time.Duration, len(seq))
	var next sync.Mutex
	idx := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dsts := make([]mat.View, len(classes))
			for c := range classes {
				dsts[c] = mat.NewDense(classes[c].x.Dim(classes[c].mode), classes[c].rank)
			}
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= len(seq) {
					return
				}
				c := &classes[seq[i]]
				t0 := time.Now()
				if err := srv.SubmitMTTKRP(serve.MTTKRPRequest{X: c.x, Factors: c.u, Mode: c.mode, Dst: dsts[seq[i]]}).Err(); err != nil {
					panic(err)
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	srv.Drain() // settle in-flight counter folds so the snapshot is exact
	st := srv.Stats()
	perClass := make([][]time.Duration, len(classes))
	for i, lat := range latencies {
		perClass[seq[i]] = append(perClass[seq[i]], lat)
	}
	return perClass, wall, st
}

// driveLoad is the shared measurement harness: conc submitters pull
// request indices from a shared counter and execute `request` per pull,
// so the served and naive series run under an identical driver and any
// methodology change applies to both.
func driveLoad(cfg ServeLoadConfig, x tensor.Interface, conc int, request func(dst mat.View)) serveLoadResult {
	latencies := make([]time.Duration, cfg.Requests)
	var next sync.Mutex
	idx := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := mat.NewDense(x.Dim(cfg.Mode), cfg.Rank)
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= cfg.Requests {
					return
				}
				t0 := time.Now()
				request(dst)
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return summarize(latencies, time.Since(start))
}

// runServed measures the admission-controlled scheduler under load,
// returning its counter snapshot alongside (the fusion hit rate column).
func runServed(cfg ServeLoadConfig, x tensor.Interface, u []mat.View, conc int) (serveLoadResult, serve.Stats) {
	s := serve.New(serve.Config{Workers: cfg.Workers, DisableFusion: cfg.NoFusion, Topology: cfg.topology()})
	defer s.Close()
	// Warm the shape-keyed workspace set once, as a steady-state server
	// would be.
	if err := s.SubmitMTTKRP(serve.MTTKRPRequest{X: x, Factors: u, Mode: cfg.Mode}).Err(); err != nil {
		panic(err)
	}
	r := driveLoad(cfg, x, conc, func(dst mat.View) {
		if err := s.SubmitMTTKRP(serve.MTTKRPRequest{X: x, Factors: u, Mode: cfg.Mode, Dst: dst}).Err(); err != nil {
			panic(err)
		}
	})
	// Tickets resolve inside batch execution, before the executor folds
	// its fusion counters into the stats; drain so the snapshot is exact.
	s.Drain()
	return r, s.Stats()
}

// runNaive measures the pre-serving pattern: every request creates its own
// full-width pool, computes, and tears it down. core.Run dispatches on the
// tensor layout, so the same harness covers dense and sparse workloads.
func runNaive(cfg ServeLoadConfig, x tensor.Interface, u []mat.View, conc int) serveLoadResult {
	return driveLoad(cfg, x, conc, func(dst mat.View) {
		pool := parallel.NewPool(cfg.Workers)
		core.Run(core.Request{X: x, Factors: u, Mode: cfg.Mode, Dst: dst, Opts: core.Options{Pool: pool}})
		pool.Close()
	})
}

func summarize(lat []time.Duration, wall time.Duration) serveLoadResult {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return serveLoadResult{
		throughput: float64(len(lat)) / wall.Seconds(),
		p50:        Quantile(sorted, 0.50),
		p95:        Quantile(sorted, 0.95),
		p99:        Quantile(sorted, 0.99),
	}
}

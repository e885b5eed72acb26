package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/simd"
)

// metricDef declares one metric the ledger prints. The two tables below are
// the ledger's contract with BENCHMARK.json (the tests compare them): every
// workload prints every end-to-end metric in an untraced run and every
// per-layer metric in a traced run, nothing else.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the library or the daemon sees. An
// "operation" is one CP-ALS sweep (cp-fmri), one all-mode MTTKRP sweep
// (mttkrp-order6) or one HTTP request (http-*). The timings are low
// percentiles and best passes because the shared hosts this runs on slow
// every operation by up to 40% for minutes at a time, while their fast
// operations stay fast (README.md has the numbers).
var endToEnd = []metricDef{
	{"setup_s", "s"},            // median of the repeated set-ups
	{"peak_rss_mib", "MiB"},     // peak resident set of the timed phase
	{"op_p10_ms", "ms"},         // p10 of sweeps; mix-weighted p10 of request latency
	{"throughput_per_s", "1/s"}, // sweeps per second at p10, or the fastest closed-loop pass
}

// perLayer are the traced run's metrics, one group per layer. Each is
// measured at the workload's own shapes: from the workload's operations
// where they pass through the layer, from a short probe otherwise
// (README.md lists the source of each).
var perLayer = []metricDef{
	{"core.mttkrp_ms", "ms"},
	{"core.gemm_ms", "ms"},
	{"core.gemv_ms", "ms"},
	{"core.krp_full_ms", "ms"},
	{"core.krp_lr_ms", "ms"},
	{"core.reduce_ms", "ms"},
	{"core.other_ms", "ms"},
	{"core.gemm_baseline_ratio", "ratio"},
	{"core.useful_gflops", "GFLOP/s"},
	{"core.flops_per_byte", "flop/B"},
	{"cpd.self_ms", "ms"},
	{"cpd.mttkrp_share", "ratio"},
	{"blas.gemm_gflops", "GFLOP/s"},
	{"blas.gemm_peak_ratio", "ratio"},
	{"simd.gemm4x4_gflops", "GFLOP/s"},
	{"krp.gbps", "GB/s"},
	{"stream.scale_gbps", "GB/s"},
	{"krp.stream_ratio", "ratio"},
	{"parallel.dispatch_us", "us"},
	{"parallel.scaling_eff", "ratio"},
	{"serve.compute_ms_p50", "ms"},
	{"serve.compute_ms_p99", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.items_per_batch", "count"},
	{"serve.fused_ratio", "ratio"},
	{"serve.plan_cache_hits", "count"},
	{"serve.max_queue_wait_ms", "ms"},
	{"serve.peak_queued", "count"},
	{"transport.decode_ms_p50", "ms"},
	{"transport.decode_share", "ratio"},
	{"transport.decode_gbps", "GB/s"},
	{"transport.bytes_in_per_req", "B"},
	{"transport.client_other_ms_p50", "ms"},
	{"transport.rejected", "count"},
	{"transport.refcache_hit_ratio", "ratio"},
	{"tensor.map_ms", "ms"},
	{"tensor.tile_rows", "count"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.inflight_max", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unaccounted_ratio", "ratio"},
}

// result is one workload run's outcome: the final JSON line's fields.
type result struct {
	attempted, failed int
	problems          []string // correctness failures, printed to stderr
	values            map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// fail records a correctness failure against n operations.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// declared returns the metric table a run with the given trace setting
// prints.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// quantile is the nearest-rank p-quantile of an ascending-sorted slice:
// sorted[ceil(p·N)−1], p clamped to (0, 1], 0 for an empty slice. It is the
// same definition as the repository's bench.Quantile (the tests pin the
// two together), kept here so the benchmark does not depend on code that
// later changes edit.
func quantile(sorted []float64, p float64) float64 {
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

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relErr is the relative Frobenius error ‖got − want‖ / ‖want‖.
func relErr(got, want mat.View) float64 {
	var d, w float64
	for i := 0; i < want.R; i++ {
		for j := 0; j < want.C; j++ {
			e := got.At(i, j) - want.At(i, j)
			d += e * e
			w += want.At(i, j) * want.At(i, j)
		}
	}
	if w == 0 {
		return math.Sqrt(d)
	}
	return math.Sqrt(d / w)
}

// maxRelErr is the correctness tolerance of every checked result.
const maxRelErr = 1e-12

// fingerprint is the FNV-1a hash of the bit patterns of the given float64
// slices, printed for each workload input so that a changed generator shows.
func fingerprint(slices ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range slices {
		for _, v := range s {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (Linux
// clear_refs "5"), so peakRSSMiB reports the timed phase rather than the
// set-up. Where that is unavailable the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is getrusage's maxrss of this process in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// llcBytes is the last-level cache size sysfs reports for CPU 0, or 32 MiB
// when it reports none.
func llcBytes() int64 {
	for _, idx := range []string{"index3", "index2"} {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		var n int64
		if _, err := fmt.Sscan(s, &n); err == nil && n > 0 {
			return n * mult
		}
	}
	return 32 << 20
}

// hostFingerprint describes the machine a ledger run measured.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d simd=%s domains=%d llc_mib=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), simd.Active().Name,
		parallel.DetectTopology().Domains(), llcBytes()>>20, runtime.Version())
}

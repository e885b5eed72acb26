package serve

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// BenchmarkServeThroughput measures aggregate request throughput with 1, 4
// and 16 concurrent submitters sharing one serving runtime on one shape:
// the batching + admission steady state. Each op is one MTTKRP request.
func BenchmarkServeThroughput(b *testing.B) {
	x, u := problem(42, 16, 48, 40, 36)
	for _, conc := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("conc-%d", conc), func(b *testing.B) {
			s := New(Config{})
			defer s.Close()
			// Per-submitter retained dst: the serving steady state.
			dsts := make([]mat.View, conc)
			for i := range dsts {
				dsts[i] = mat.NewDense(x.Dim(1), 16)
			}
			// Warm the shape-keyed workspaces.
			if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dsts[0]}).Err(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < b.N; i += conc {
						if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dsts[w]}).Err(); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkMixedAdmission is the tail-latency fingerprint of the
// admission policy on a heterogeneous workload, recorded in the CI bench
// artifact (BENCH_<sha>.json) so the perf trajectory captures small-
// request latency under a large-request convoy, not just kernel time.
// Each op is one round: one large MTTKRP fired asynchronously, then eight
// small requests latency-measured while it runs, reported as the
// small-p50/p99 custom metrics.
func BenchmarkMixedAdmission(b *testing.B) {
	xl, ul := problem(42, 16, 48, 40, 36)
	xs, us := problem(43, 4, 12, 10, 8)
	// The sub-benchmark name stays so bench artifacts diff across commits.
	b.Run("cost-aware", func(b *testing.B) {
		s := New(Config{})
		defer s.Close()
		// Warm both shape-keyed workspace sets and the rate estimate.
		if err := s.SubmitMTTKRP(MTTKRPRequest{X: xl, Factors: ul, Mode: 1}).Err(); err != nil {
			b.Fatal(err)
		}
		if err := s.SubmitMTTKRP(MTTKRPRequest{X: xs, Factors: us, Mode: 1}).Err(); err != nil {
			b.Fatal(err)
		}
		dstL := mat.NewDense(xl.Dim(1), 16)
		dstS := mat.NewDense(xs.Dim(1), 4)
		lats := make([]time.Duration, 0, 8*b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			large := s.SubmitMTTKRP(MTTKRPRequest{X: xl, Factors: ul, Mode: 1, Dst: dstL})
			for j := 0; j < 8; j++ {
				t0 := time.Now()
				if err := s.SubmitMTTKRP(MTTKRPRequest{X: xs, Factors: us, Mode: 1, Dst: dstS}).Err(); err != nil {
					b.Fatal(err)
				}
				lats = append(lats, time.Since(t0))
			}
			if err := large.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			return float64(lats[int(p*float64(len(lats)-1))].Microseconds()) / 1e3
		}
		b.ReportMetric(q(0.50), "small-p50-ms")
		b.ReportMetric(q(0.99), "small-p99-ms")
	})
}

// BenchmarkServeVsNaivePools is the acceptance comparison: 4 concurrent
// same-shape MTTKRP streams through the serving runtime versus 4
// independent callers that each spin up (and tear down) their own
// full-width NewPool(0), the pre-serving concurrency pattern. Each op is
// one request per stream. The "mid" shape is compute-bound (the win there
// comes from not oversubscribing cores: the naive pattern runs
// 4×GOMAXPROCS workers on GOMAXPROCS cores); the "small" shape is
// setup-bound (the win comes from amortizing pool spin-up and workspace
// warmup across the batch), which shows on any core count.
func BenchmarkServeVsNaivePools(b *testing.B) {
	const conc = 4
	for _, size := range []struct {
		name    string
		dims    []int
		workers int // 0 = GOMAXPROCS on both sides
	}{
		{"mid", []int{48, 40, 36}, 0},
		{"small", []int{12, 10, 8}, 4},
		// width4 pins both sides to the configuration a 4-core deployment
		// uses — server team of 4 vs four 4-wide private pools — so the
		// oversubscription penalty the scheduler avoids (16 workers where
		// 4 belong) is visible regardless of the host's core count.
		{"width4", []int{48, 40, 36}, 4},
	} {
		x, u := problem(42, 16, size.dims...)
		b.Run(size.name+"/served", func(b *testing.B) {
			s := New(Config{Workers: size.workers})
			defer s.Close()
			dsts := make([]mat.View, conc)
			for i := range dsts {
				dsts[i] = mat.NewDense(x.Dim(1), 16)
			}
			if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dsts[0]}).Err(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: 1, Dst: dsts[w]}).Err(); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
		b.Run(size.name+"/naive-pools", func(b *testing.B) {
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					dst := mat.NewDense(x.Dim(1), 16)
					for i := 0; i < b.N; i++ {
						pool := parallel.NewPool(size.workers)
						core.ComputeInto(dst, core.MethodAuto, x, u, 1, core.Options{Pool: pool})
						pool.Close()
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkFusedBatch is the batch-level KRP fusion acceptance metric,
// recorded in the CI bench artifact: each op admits one batch of 8
// coalesced same-factor MTTKRP requests (piled up behind a blocker, the
// deterministic way to form a batch) and waits for all of them. The
// fused/unfused sub-benchmarks differ only in Config.DisableFusion; the
// req-ms metric is the per-request latency inside the batch and
// fused-hit-rate is the fraction of MTTKRP batches that executed on a
// shared KRP plan (1 when fusion is on, 0 off). The "mid" shape is the
// serving default at its external mode (the ALS inner-loop case the
// batcher coalesces; KRP ≈ 1/(2·I_n) of the flops); "krp-heavy" is an
// order-5 cube where the scalar KRP iterator is a large share of the
// runtime and fusion pays the most.
func BenchmarkFusedBatch(b *testing.B) {
	const members = 8
	for _, shape := range []struct {
		name string
		dims []int
		rank int
		mode int
	}{
		{"mid", []int{48, 40, 36}, 16, 0},
		{"krp-heavy", []int{8, 8, 8, 8, 8}, 32, 0},
	} {
		x, u := problem(42, shape.rank, shape.dims...)
		for _, policy := range []struct {
			name   string
			nofuse bool
		}{{"fused", false}, {"unfused", true}} {
			b.Run(shape.name+"/"+policy.name, func(b *testing.B) {
				s := New(Config{Workers: 4, MaxActive: 1, DisableFusion: policy.nofuse})
				defer s.Close()
				dsts := make([]mat.View, members)
				for i := range dsts {
					dsts[i] = mat.NewDense(x.Dim(shape.mode), shape.rank)
				}
				// Warm the shape-keyed workspaces and the plan arena.
				if err := s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: shape.mode, Dst: dsts[0]}).Err(); err != nil {
					b.Fatal(err)
				}
				var reqNs int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					release := make(chan struct{})
					started := make(chan struct{})
					blocker := s.submitFunc("", 0, 0, func(parallel.Executor) {
						close(started)
						<-release
					})
					<-started
					tickets := make([]*Ticket, members)
					for j := range tickets {
						tickets[j] = s.SubmitMTTKRP(MTTKRPRequest{X: x, Factors: u, Mode: shape.mode, Dst: dsts[j]})
					}
					t0 := time.Now()
					close(release)
					if err := blocker.Err(); err != nil {
						b.Fatal(err)
					}
					for _, tk := range tickets {
						if err := tk.Err(); err != nil {
							b.Fatal(err)
						}
					}
					reqNs += time.Since(t0).Nanoseconds()
				}
				b.StopTimer()
				st := s.Stats()
				mttkrpBatches := st.Batches - b.N - 1 // minus blockers and warmup
				if mttkrpBatches < 1 {
					mttkrpBatches = 1
				}
				b.ReportMetric(float64(st.Fused)/float64(mttkrpBatches), "fused-hit-rate")
				b.ReportMetric(float64(reqNs)/1e6/float64(b.N*members), "req-ms")
			})
		}
	}
}

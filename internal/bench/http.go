package bench

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/simd"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// HTTPLoadConfig parameterizes the HTTP serving load generator.
type HTTPLoadConfig struct {
	// URL targets a live listener ("http://host:port"); empty starts an
	// in-process listener on a loopback port and tears it down after.
	URL string
	// Dims and Rank define the MTTKRP problem every request ships.
	Dims []int
	Rank int
	// Mode is the MTTKRP mode (defaults to an internal mode, the harder
	// case).
	Mode int
	// Conc is the list of concurrency levels to sweep. Default {1, 4, 16}.
	Conc []int
	// Requests is the total request count per concurrency level. Default 64.
	Requests int
	// Workers sizes the in-process server pool (0 = GOMAXPROCS); ignored
	// when URL targets an external listener.
	Workers int
	// Mix, when non-empty, ships a heterogeneous workload instead of one
	// shape: a weighted class mix like "small:8,large:1" (classes scaled
	// from Dims/Rank, as in ServeLoadConfig.Mix), with per-class
	// p50/p95/p99 rows.
	Mix string
	// Sparse ships COO tensors at Density over the sparse wire format
	// (version 2, /v1/sparse-mttkrp) instead of dense payloads — the
	// wire-size column then prices coordinates + values, not the full
	// dense entry count.
	Sparse bool
	// Mmap ships by-reference requests (wire version 3, /v1/mttkrp-ref):
	// the tensor is written once to a mappable file under the in-process
	// listener's tensor root, and every request carries only the factor
	// matrices plus the file reference — the A/B against full-payload
	// requests whose win shows up in the decode-share column. In-process
	// listener only (an external listener's tensor root is unreachable
	// from here); mutually exclusive with Sparse.
	Mmap bool
	// Density is the fill fraction of the sparse tensors (default 0.01);
	// only meaningful with Sparse.
	Density float64
	// NoFusion disables batch-level KRP fusion on the in-process
	// listener (the -fuse=off half of the A/B); ignored when URL targets
	// an external listener, whose config the load generator cannot set.
	NoFusion bool
	// NoSIMD forces the scalar reference kernels in this process for the
	// duration of the run (the -simd=off half of the A/B). Like
	// NoFusion, it cannot reach an external listener — there, start the
	// listener with mttkrp-serve -nosimd instead.
	NoSIMD bool
	// NUMA enables topology-aware placement on the in-process listener
	// (the -numa=on half of the A/B; see ServeLoadConfig.NUMA). Ignored
	// when URL targets an external listener — there, start the listener
	// with mttkrp-serve -numa=on instead.
	NUMA bool
	// Out receives OBS commentary lines (may be nil).
	Out func(format string, args ...any)
}

// HTTPLoad drives concurrent binary-wire MTTKRP requests through a
// transport listener and tabulates throughput, latency percentiles, and
// the server-reported decode-vs-compute time split — the acceptance
// measurement for the network front end (EXPERIMENTS.md, "HTTP transport
// throughput"). Unlike ServeLoad, every request ships its full tensor
// payload, so the decode column prices the wire. An unreachable or
// refusing listener is reported as an error (user-driven via -addr), not
// a panic.
func HTTPLoad(cfg HTTPLoadConfig) (*Table, error) {
	if len(cfg.Dims) == 0 {
		cfg.Dims = []int{48, 40, 36}
	}
	if cfg.Rank <= 0 {
		cfg.Rank = 16
	}
	if cfg.Mode <= 0 || cfg.Mode >= len(cfg.Dims) {
		cfg.Mode = len(cfg.Dims) / 2
	}
	if len(cfg.Conc) == 0 {
		cfg.Conc = []int{1, 4, 16}
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 64
	}
	if cfg.Density <= 0 || cfg.Density > 1 {
		cfg.Density = 0.01
	}
	if cfg.Out == nil {
		cfg.Out = func(string, ...any) {}
	}
	if cfg.NoSIMD {
		prev := simd.Active()
		simd.Use(simd.Scalar())
		defer simd.Use(prev)
	}

	if cfg.Mmap && cfg.Sparse {
		return nil, fmt.Errorf("bench: -mmap ships dense by-reference requests; drop -sparse")
	}
	if cfg.Mmap && cfg.URL != "" {
		return nil, fmt.Errorf("bench: -mmap needs the in-process listener (an external listener's tensor root is unreachable); drop -addr")
	}

	var tensorRoot string
	if cfg.Mmap {
		dir, err := os.MkdirTemp("", "mttkrp-bench-mmap-")
		if err != nil {
			return nil, fmt.Errorf("bench: tensor root: %w", err)
		}
		defer os.RemoveAll(dir)
		tensorRoot = dir
	}

	url := cfg.URL
	var srv *transport.Server // non-nil only for the in-process listener
	if url == "" {
		var topo *parallel.Topology
		if cfg.NUMA {
			topo = parallel.DetectTopology()
		}
		srv = transport.NewServer(transport.Config{
			Serve:      serve.Config{Workers: cfg.Workers, DisableFusion: cfg.NoFusion, Topology: topo},
			TensorRoot: tensorRoot,
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: in-process listener: %w", err)
		}
		go srv.Serve(l)
		defer srv.Close()
		url = "http://" + l.Addr().String()
		cfg.Out("OBS http: started in-process listener %s (%d workers, fusion %s, simd %s, numa %s)\n", url, srv.Workers(), onOff(!cfg.NoFusion), onOff(!cfg.NoSIMD), onOff(cfg.NUMA))
	}

	client := transport.NewClient(url)
	if cfg.Mix != "" {
		return httpMixLoad(cfg, client, url, srv)
	}

	rng := rand.New(rand.NewSource(99))
	x := loadTensor(rng, cfg.Sparse, cfg.Density, cfg.Dims...)
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), cfg.Rank, rng)
	}

	// send routes one steady-state request: by reference when Mmap (the
	// tensor file written once, below), by payload otherwise.
	send := func(dst mat.View) (mat.View, transport.Timing, error) {
		return clientMTTKRP(client, dst, x, u, cfg.Mode)
	}
	var payload int64
	switch {
	case cfg.Mmap:
		path := filepath.Join(tensorRoot, "x.dsnt")
		if err := tensor.WriteDenseFile(path, x.(*tensor.Dense)); err != nil {
			return nil, fmt.Errorf("bench: write tensor file: %w", err)
		}
		info, err := tensor.StatDense(path)
		if err != nil {
			return nil, fmt.Errorf("bench: stat tensor file: %w", err)
		}
		ref := transport.RefFor(info, "x.dsnt")
		send = func(dst mat.View) (mat.View, transport.Timing, error) {
			return client.MTTKRPByRef(dst, ref, cfg.Dims, u, cfg.Mode, 0)
		}
		payload = (&transport.Header{Op: transport.OpMTTKRPByRef, Mode: cfg.Mode, Rank: cfg.Rank, Dims: cfg.Dims, Ref: ref}).WireSize()
	default:
		if xs, ok := x.(*tensor.Sparse); ok {
			payload = transport.SparseHeader(xs, 0, cfg.Mode, cfg.Rank).WireSize()
		} else {
			payload = (&transport.Header{Op: transport.OpMTTKRP, Mode: cfg.Mode, Rank: cfg.Rank, Dims: cfg.Dims}).WireSize()
		}
	}

	tb := NewTable(
		fmt.Sprintf("HTTP transport throughput — %s MTTKRP %v rank %d mode %d, %d requests per level, %s/request on the wire",
			httpLayoutTag(cfg, x), cfg.Dims, cfg.Rank, cfg.Mode, cfg.Requests, cli.FormatBytes(payload)),
		"conc", "req/s", "MB/s in", "p50 ms", "p95 ms", "p99 ms", "decode ms/req", "compute ms/req", "decode share", "rejected", "fuse hit")

	// Warm the connection pool and the server's shape-keyed workspaces.
	if _, _, err := send(mat.View{}); err != nil {
		return nil, fmt.Errorf("bench: warmup request against %s failed: %w", url, err)
	}

	for _, conc := range cfg.Conc {
		pre := serveStatsOf(srv)
		r := runHTTPLevel(cfg, send, x, conc)
		hit := httpFuseHit(srv, pre)
		completed := cfg.Requests - int(r.rejected)
		decodeMs, computeMs := 0.0, 0.0
		if completed > 0 {
			decodeMs = float64(r.decodeNs) / 1e6 / float64(completed)
			computeMs = float64(r.computeNs) / 1e6 / float64(completed)
		}
		share := 0.0
		if r.decodeNs+r.computeNs > 0 {
			share = 100 * float64(r.decodeNs) / float64(r.decodeNs+r.computeNs)
		}
		mbps := r.res.throughput * float64(payload) / 1e6
		tb.Add(fmt.Sprintf("%d", conc),
			fmt.Sprintf("%.1f", r.res.throughput),
			fmt.Sprintf("%.1f", mbps),
			fmt.Sprintf("%.3f", ms(r.res.p50)), fmt.Sprintf("%.3f", ms(r.res.p95)), fmt.Sprintf("%.3f", ms(r.res.p99)),
			fmt.Sprintf("%.3f", decodeMs), fmt.Sprintf("%.3f", computeMs),
			fmt.Sprintf("%.1f%%", share),
			fmt.Sprintf("%d", r.rejected),
			hit)
		cfg.Out("OBS http conc=%d: %.1f req/s (%.1f MB/s in), decode %.3f ms vs compute %.3f ms per request (%.1f%% decode), %d rejected, fuse hit %s\n",
			conc, r.res.throughput, mbps, decodeMs, computeMs, share, r.rejected, hit)
	}
	return tb, nil
}

// httpLayoutTag labels the table title with the request style: the layout
// tag of payload-shipping runs, or the by-reference marker for -mmap.
func httpLayoutTag(cfg HTTPLoadConfig, x tensor.Interface) string {
	if cfg.Mmap {
		return "by-ref mmapped dense"
	}
	return layoutTag(cfg.Sparse, cfg.Density, x)
}

// clientMTTKRP routes one request to the wire endpoint matching the
// tensor's layout: dense payloads to /v1/mttkrp, COO payloads to the
// version-2 sparse endpoint.
func clientMTTKRP(client *transport.Client, dst mat.View, x tensor.Interface, u []mat.View, mode int) (mat.View, transport.Timing, error) {
	if xs, ok := x.(*tensor.Sparse); ok {
		return client.SparseMTTKRP(dst, xs, u, mode, 0)
	}
	return client.MTTKRP(dst, x.(*tensor.Dense), u, mode, 0)
}

// serveStatsOf snapshots the in-process listener's scheduler counters
// (zero Stats for an external listener).
func serveStatsOf(srv *transport.Server) serve.Stats {
	if srv == nil {
		return serve.Stats{}
	}
	return srv.Stats().Serve
}

// httpFuseHit formats the fusion hit rate of one concurrency level as the
// delta against the pre-level snapshot; external listeners (no stats
// access over the load-generator path) report n/a.
func httpFuseHit(srv *transport.Server, pre serve.Stats) string {
	if srv == nil {
		return "n/a"
	}
	post := srv.Stats().Serve
	batches := post.Batches - pre.Batches
	if batches <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(post.Fused-pre.Fused)/float64(batches))
}

// httpMixLoad ships the heterogeneous class mix over the wire: every
// request carries its class's full tensor payload, and latency percentiles
// are reported per class — the network-path view of the convoy/tail
// measurement (including p99, which one-shape runs hide).
func httpMixLoad(cfg HTTPLoadConfig, client *transport.Client, url string, srv *transport.Server) (*Table, error) {
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
	for _, c := range classes {
		if _, _, err := clientMTTKRP(client, mat.View{}, c.x, c.u, c.mode); err != nil {
			return nil, fmt.Errorf("bench: warmup request against %s failed: %w", url, err)
		}
	}

	tb := NewTable(
		fmt.Sprintf("HTTP mixed serving load — %s base %v rank %d, mix %s, %d requests per level",
			layoutTag(cfg.Sparse, cfg.Density, nil), cfg.Dims, cfg.Rank, cfg.Mix, cfg.Requests),
		"conc", "class", "req/s", "p50 ms", "p95 ms", "p99 ms", "rejected")

	for _, conc := range cfg.Conc {
		pre := serveStatsOf(srv)
		seq := classSequence(mix, cfg.Requests, int64(conc))
		latencies := make([]time.Duration, len(seq))
		accepted := make([]bool, len(seq))
		rejected := make([]atomic.Int64, len(classes))
		idx := 0
		var mu sync.Mutex
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
					mu.Lock()
					i := idx
					idx++
					mu.Unlock()
					if i >= len(seq) {
						return
					}
					c := &classes[seq[i]]
					t0 := time.Now()
					_, _, err := clientMTTKRP(client, dsts[seq[i]], c.x, c.u, c.mode)
					if err != nil {
						rejected[seq[i]].Add(1)
						continue
					}
					latencies[i] = time.Since(t0)
					accepted[i] = true
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		perClass := make([][]time.Duration, len(classes))
		for i := range seq {
			if accepted[i] {
				perClass[seq[i]] = append(perClass[seq[i]], latencies[i])
			}
		}
		for c, lats := range perClass {
			if len(lats) == 0 && rejected[c].Load() == 0 {
				continue
			}
			r := summarize(lats, wall)
			tb.Add(fmt.Sprintf("%d", conc), classes[c].name,
				fmt.Sprintf("%.1f", r.throughput),
				fmt.Sprintf("%.3f", ms(r.p50)), fmt.Sprintf("%.3f", ms(r.p95)), fmt.Sprintf("%.3f", ms(r.p99)),
				fmt.Sprintf("%d", rejected[c].Load()))
			cfg.Out("OBS http mix conc=%d class=%s: %.1f req/s, p99 %.3f ms\n",
				conc, classes[c].name, r.throughput, ms(r.p99))
		}
		cfg.Out("OBS http mix conc=%d: fuse hit %s\n", conc, httpFuseHit(srv, pre))
	}
	return tb, nil
}

// httpLevelResult carries one concurrency level's aggregates.
type httpLevelResult struct {
	res                 serveLoadResult
	decodeNs, computeNs int64
	rejected            int64
}

// runHTTPLevel fires cfg.Requests through conc submitters sharing one
// send function (one client, one pooled connection set), with a retained
// dst per submitter — the steady-state client pattern. Rejected requests
// (quota 429s against a live listener, transport errors) are counted
// separately and excluded from the latency/throughput series, so a
// throttled run cannot masquerade as a fast one.
func runHTTPLevel(cfg HTTPLoadConfig, send func(mat.View) (mat.View, transport.Timing, error), x tensor.Interface, conc int) httpLevelResult {
	var r httpLevelResult
	var mu sync.Mutex
	latencies := make([]time.Duration, 0, cfg.Requests)
	idx := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := mat.NewDense(x.Dim(cfg.Mode), cfg.Rank)
			for {
				mu.Lock()
				i := idx
				idx++
				mu.Unlock()
				if i >= cfg.Requests {
					return
				}
				t0 := time.Now()
				_, tm, err := send(dst)
				lat := time.Since(t0)
				if err != nil {
					atomic.AddInt64(&r.rejected, 1)
					continue
				}
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
				atomic.AddInt64(&r.decodeNs, tm.Decode.Nanoseconds())
				atomic.AddInt64(&r.computeNs, tm.Compute.Nanoseconds())
			}
		}()
	}
	wg.Wait()
	r.res = summarize(latencies, time.Since(start))
	return r
}

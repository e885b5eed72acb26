package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// reqClass is one kind of request of an HTTP workload: a tensor (shipped
// dense, shipped sparse, or named by file), its factor sets, and the result
// of every (set, mode) computed locally during set-up.
type reqClass struct {
	name   string
	weight float64
	dims   []int
	dense  *tensor.Dense
	sparse *tensor.Sparse
	path   string // by-reference tensor file ("" for payload classes)
	ref    transport.TensorRef
	sets   [][]mat.View
	want   [][]mat.View // want[set][mode]
	fp     uint64       // FNV-1a of the tensor values and factor sets
}

func (c *reqClass) send(cl *transport.Client, dst mat.View, set, mode int) (mat.View, transport.Timing, error) {
	switch {
	case c.path != "":
		return cl.MTTKRPByRef(dst, c.ref, c.dims, c.sets[set], mode, core.MethodAuto)
	case c.sparse != nil:
		return cl.SparseMTTKRP(dst, c.sparse, c.sets[set], mode, core.MethodAuto)
	}
	return cl.MTTKRP(dst, c.dense, c.sets[set], mode, core.MethodAuto)
}

// tensor returns the class's tensor for a direct (unserved) call; a
// by-reference class maps its file, which the caller closes.
func (c *reqClass) tensor() (tensor.Interface, func(), error) {
	switch {
	case c.path != "":
		m, err := tensor.OpenDense(c.path)
		if err != nil {
			return nil, nil, err
		}
		return m.Dense, func() { m.Close() }, nil
	case c.sparse != nil:
		return c.sparse, func() {}, nil
	}
	return c.dense, func() {}, nil
}

// newClass draws nsets factor sets for dims and computes every expected
// result on pool; x is the class tensor, dense or sparse.
func newClass(pool *parallel.Pool, rng *rand.Rand, name string, weight float64, dims []int, x tensor.Interface, rank, nsets int) *reqClass {
	c := &reqClass{name: name, weight: weight, dims: dims}
	for s := 0; s < nsets; s++ {
		u := make([]mat.View, len(dims))
		for k, d := range dims {
			u[k] = mat.RandomDense(d, rank, rng)
		}
		want := make([]mat.View, len(dims))
		for m := range dims {
			want[m] = core.Run(core.Request{X: x, Factors: u, Mode: m, Opts: core.Options{Pool: pool}})
		}
		c.sets = append(c.sets, u)
		c.want = append(c.want, want)
	}
	return c
}

// fingerprint hashes a class's tensor values and factor sets.
func (c *reqClass) fingerprint(x tensor.Interface) uint64 {
	var parts [][]float64
	switch t := x.(type) {
	case *tensor.Dense:
		parts = append(parts, t.Data())
	case *tensor.Sparse:
		parts = append(parts, t.Values())
	}
	for _, u := range c.sets {
		for _, m := range u {
			parts = append(parts, m.Data)
		}
	}
	return fingerprint(parts...)
}

// httpSpec is one HTTP workload: its request classes and its nominal
// open-loop rate, frozen at about a third of the closed-loop throughput
// measured on the sizing host, so that a slower spell of a shared host
// does not push the open loop into saturation.
type httpSpec struct {
	name    string
	nominal float64
	// build generates the classes, writing any tensor files under root.
	build func(pool *parallel.Pool, rng *rand.Rand, root string, tiny bool) ([]*reqClass, error)
}

func runHTTPPayload(cfg *config, out io.Writer) (*result, error) {
	return runHTTP(cfg, out, httpSpec{name: "http-payload", nominal: 300, build: buildPayload})
}

func runHTTPByRef(cfg *config, out io.Writer) (*result, error) {
	return runHTTP(cfg, out, httpSpec{name: "http-byref", nominal: 70, build: buildByRef})
}

// buildPayload makes the http-payload mix: small and large dense tensors
// and a sparse COO tensor at density 0.01, weighted 6:1:2, rank 16, four
// factor sets each.
func buildPayload(pool *parallel.Pool, rng *rand.Rand, _ string, tiny bool) ([]*reqClass, error) {
	small, large, sparse, rank, density := []int{48, 40, 36}, []int{96, 80, 72}, []int{200, 160, 120}, 16, 0.01
	if tiny {
		small, large, sparse, rank, density = []int{6, 5, 4}, []int{8, 7, 6}, []int{20, 16, 12}, 4, 0.05
	}
	var classes []*reqClass
	for _, k := range []struct {
		name   string
		weight float64
		dims   []int
	}{{"small", 6, small}, {"large", 1, large}, {"sparse", 2, sparse}} {
		var x tensor.Interface
		if k.name == "sparse" {
			x = tensor.RandomSparse(rng, density, k.dims...)
		} else {
			x = tensor.Random(rng, k.dims...)
		}
		c := newClass(pool, rng, k.name, k.weight, k.dims, x, rank, 4)
		if d, ok := x.(*tensor.Dense); ok {
			c.dense = d
		} else {
			c.sparse = x.(*tensor.Sparse)
		}
		c.fp = c.fingerprint(x)
		classes = append(classes, c)
	}
	return classes, nil
}

// buildByRef writes the http-byref files: 10 tensors of 128×128×80 and 10
// of 32×32×32×40 (10 MiB each: above the daemon's 8 MiB tile budget, and
// more files than its 16-entry map cache holds), two factor sets each,
// rank 16.
func buildByRef(pool *parallel.Pool, rng *rand.Rand, root string, tiny bool) ([]*reqClass, error) {
	a, b, rank := []int{128, 128, 80}, []int{32, 32, 32, 40}, 16
	if tiny {
		a, b, rank = []int{8, 8, 6}, []int{4, 4, 4, 5}, 4
	}
	var classes []*reqClass
	for i := 0; i < 20; i++ {
		dims := a
		if i >= 10 {
			dims = b
		}
		x := tensor.Random(rng, dims...)
		name := fmt.Sprintf("f%02d.dsnt", i)
		c := newClass(pool, rng, name, 1, dims, x, rank, 2)
		c.path = filepath.Join(root, name)
		if err := tensor.WriteDenseFile(c.path, x); err != nil {
			return nil, err
		}
		info, err := tensor.StatDense(c.path)
		if err != nil {
			return nil, err
		}
		c.ref = transport.RefFor(info, name)
		c.fp = c.fingerprint(x)
		classes = append(classes, c)
	}
	return classes, nil
}

// httpServer is an in-process daemon front end on a loopback port with a
// client limited to one keep-alive connection per sender. The server runs
// the zero-value transport.Config (scheduler width = nproc), as
// mttkrp-serve -listen does, plus a tensor root for by-reference requests.
type httpServer struct {
	srv    *transport.Server
	client *transport.Client
	hc     *http.Client
	done   chan error
}

func startServer(root string, senders int) (*httpServer, error) {
	srv := transport.NewServer(transport.Config{TensorRoot: root})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(l) }()
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}}
	s.client = transport.NewClient("http://" + l.Addr().String())
	s.client.HTTPClient = s.hc
	return s, nil
}

// stop drains the server and waits for its serving goroutine.
func (s *httpServer) stop() error {
	s.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if e := <-s.done; err == nil {
		err = e
	}
	return err
}

// httpEnv is one complete set-up of an HTTP workload.
type httpEnv struct {
	dir     string
	pool    *parallel.Pool
	classes []*reqClass
	srv     *httpServer
}

func (e *httpEnv) close() {
	if e.srv != nil {
		e.srv.stop()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	os.RemoveAll(e.dir)
}

// setUpHTTP generates the inputs, computes the expected results, writes
// the tensor files, starts the daemon and warms it with one request per
// (class, mode).
func setUpHTTP(cfg *config, spec httpSpec, dir string, senders int) (*httpEnv, error) {
	e := &httpEnv{dir: dir, pool: parallel.NewPool(0)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return e, err
	}
	var err error
	e.classes, err = spec.build(e.pool, rand.New(rand.NewSource(cfg.seed)), dir, cfg.tiny)
	if err != nil {
		return e, err
	}
	if e.srv, err = startServer(dir, senders); err != nil {
		return e, err
	}
	for _, c := range e.classes {
		for m := range c.dims {
			got, _, err := c.send(e.srv.client, mat.View{}, 0, m)
			if err != nil {
				return e, fmt.Errorf("warm-up %s mode %d: %w", c.name, m, err)
			}
			if relErr(got, c.want[0][m]) > maxRelErr {
				return e, fmt.Errorf("warm-up %s mode %d: result differs from the local one", c.name, m)
			}
		}
	}
	return e, nil
}

// runHTTP measures an HTTP workload: an open loop of Poisson arrivals at
// the nominal rate for half the run, then the same mix in a closed loop,
// one request in flight per sender, for the rest.
func runHTTP(cfg *config, out io.Writer, spec httpSpec) (*result, error) {
	r := newResult()
	senders := runtime.GOMAXPROCS(0)
	nominal := spec.nominal
	if cfg.tiny {
		nominal = 40
	}
	work, err := cfg.tempDir(spec.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var env *httpEnv
	var setups []float64
	for rep := 0; moreSetups(setups); rep++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		env, err = setUpHTTP(cfg, spec, filepath.Join(work, fmt.Sprint(rep)), senders)
		if err != nil {
			env.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	for _, c := range env.classes {
		fmt.Fprintf(out, "# input %s/%s dims=%v fnv1a=%016x\n", spec.name, c.name, c.dims, c.fp)
	}
	freeAndReset()

	// Every sender keeps one destination per (class, mode), as a
	// steady-state client does.
	dsts := make([][][]mat.View, senders)
	for s := range dsts {
		for _, c := range env.classes {
			ds := make([]mat.View, len(c.dims))
			for m, d := range c.dims {
				ds[m] = mat.NewDense(d, c.sets[0][0].C)
			}
			dsts[s] = append(dsts[s], ds)
		}
	}
	send := func(s int, a *arrival) error {
		c := env.classes[a.class]
		got, tm, err := c.send(env.srv.client, dsts[s][a.class][a.mode], a.set, a.mode)
		a.tm = tm
		if err != nil {
			return err
		}
		if resultHook != nil {
			resultHook(got)
		}
		if e := relErr(got, c.want[a.set][a.mode]); !(e <= maxRelErr) {
			return fmt.Errorf("%s set %d mode %d: relative error %g", c.name, a.set, a.mode, e)
		}
		return nil
	}
	weights, nsets, nmodes := make([]float64, len(env.classes)), make([]int, len(env.classes)), make([]int, len(env.classes))
	for i, c := range env.classes {
		weights[i], nsets[i], nmodes[i] = c.weight, len(c.sets), len(c.dims)
	}
	mix := newMixer(rand.New(rand.NewSource(cfg.seed^0x5eed)), weights, nsets, nmodes)
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))

	// Open loop at the nominal rate.
	before, err := env.srv.client.Stats()
	if err != nil {
		return nil, err
	}
	nom := mix.poisson(nominal, half)
	inflight := openLoop(time.Now(), nom, senders, send)
	after, err := env.srv.client.Stats()
	if err != nil {
		return nil, err
	}
	count := func(arr []arrival) {
		for i := range arr {
			r.attempted++
			if arr[i].err != nil {
				r.fail(1, "request %d: %v", r.attempted, arr[i].err)
			}
		}
	}
	count(nom)
	if cfg.trace {
		return r, traceHTTP(cfg, out, r, spec.name, env, nom, before, after, inflight)
	}

	// Closed loop: one fixed list of about a second's requests, sent again
	// and again, each sender sending its next request as soon as its
	// previous one completes. The fastest pass gives the throughput.
	block := make([]arrival, int(3*nominal))
	for i := range block {
		block[i] = mix.draw(0)
	}
	var best time.Duration
	for start, pass := time.Now(), 0; pass < 2 || time.Since(start) < half; pass++ {
		arr := append([]arrival(nil), block...)
		d := closedLoop(arr, senders, send)
		count(arr)
		if pass == 0 || d < best {
			best = d
		}
	}

	r.set("setup_s", median(setups))
	r.set("peak_rss_mib", peakRSSMiB())
	r.set("op_p10_ms", mixP10(env.classes, nom))
	r.set("throughput_per_s", float64(len(block))/best.Seconds())
	lat := make([]float64, len(nom))
	for i := range nom {
		lat[i] = ms(nom[i].latency())
	}
	lat = sortedCopy(lat)
	fmt.Fprintf(out, "# %s: %d open-loop requests at %g req/s: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
		spec.name, len(nom), nominal, quantile(lat, 0.5), quantile(lat, 0.95), quantile(lat, 0.99))
	return r, nil
}

// mixP10 is the mix-weighted p10 of the requests' due-time latency, taken
// per tensor shape: the time a request of the mix takes when neither the
// queue nor the host's other tenants hold it up.
func mixP10(classes []*reqClass, arr []arrival) float64 {
	var total float64
	groups := map[string][]int{} // shape → class indices
	for i, c := range classes {
		k := fmt.Sprint(c.dims)
		groups[k] = append(groups[k], i)
		total += c.weight
	}
	var p10 float64
	for _, idx := range groups {
		var w float64
		var lat []float64
		for _, i := range idx {
			w += classes[i].weight
			for j := range arr {
				if arr[j].class == i {
					lat = append(lat, ms(arr[j].latency()))
				}
			}
		}
		p10 += w / total * quantile(sortedCopy(lat), 0.1)
	}
	return p10
}

// resultHook, when set by a test, sees (and may alter) every result before
// it is checked.
var resultHook func(mat.View)

// moreSetups reports whether a workload should set itself up once more: at
// least three times, and until two seconds of set-up have been timed (at
// most twenty times), so that the median of a fast set-up is steady too.
func moreSetups(done []float64) bool {
	var sum float64
	for _, d := range done {
		sum += d
	}
	return len(done) < 3 || (sum < 2 && len(done) < 20)
}

// traceHTTP derives the per-layer metrics of an HTTP workload from its
// nominal-phase requests, the daemon's counters and the layer probes.
func traceHTTP(cfg *config, out io.Writer, r *result, name string, env *httpEnv, nom []arrival, before, after *transport.Stats, inflight int) error {
	logf := func(format string, args ...any) { fmt.Fprintf(out, "# "+format+"\n", args...) }

	// The direct kernel time of every (class, mode), and the core phases
	// of the request mix per request.
	var total float64
	for _, c := range env.classes {
		total += c.weight
	}
	direct := make([][]float64, len(env.classes))
	bdMix := map[core.Phase]float64{}
	var mixTotal float64
	for i, c := range env.classes {
		x, closeX, err := c.tensor()
		if err != nil {
			return err
		}
		for m := range c.dims {
			req := core.Request{X: x, Factors: c.sets[0], Mode: m, Dst: mat.NewDense(c.dims[m], c.sets[0][0].C), Opts: core.Options{Pool: env.pool}}
			if d, ok := x.(*tensor.Dense); ok {
				req.Opts = withTiles(req.Opts, d, m)
			}
			core.Run(req)
			direct[i] = append(direct[i], ms(best(3, func() { core.Run(req) })))
			bd := &core.Breakdown{}
			req.Opts.Breakdown = bd
			core.Run(req)
			w := c.weight / total / float64(len(c.dims))
			for _, p := range core.Phases() {
				bdMix[p] += w * ms(bd.Get(p))
			}
			mixTotal += w * ms(bd.Total())
		}
		closeX()
	}
	setCore(r, bdMix, mixTotal)

	servingMetrics(r, nom, before, after, direct)
	r.set("bench.inflight_max", float64(inflight))
	late := make([]float64, len(nom))
	for i := range nom {
		late[i] = ms(nom[i].late)
	}
	r.set("bench.gen_late_p99_ms", quantile(sortedCopy(late), 0.99))

	// The workload's largest dense tensor carries the kernel probes; a
	// by-reference workload's files also give the mapping metrics, while
	// the payload workload probes them by serving its large class by
	// reference.
	var prim *reqClass
	for _, c := range env.classes {
		if c.sparse == nil && (prim == nil || tensorSize(c.dims) > tensorSize(prim.dims)) {
			prim = c
		}
	}
	x, closeX, err := prim.tensor()
	if err != nil {
		return err
	}
	defer closeX()
	xd := x.(*tensor.Dense)
	if prim.path != "" {
		r.set("tensor.map_ms", mapProbe(prim.path))
		r.set("tensor.tile_rows", float64(core.AutoTileRows(prim.dims, 0, 0)))
		r.set("transport.refcache_hit_ratio", ratio(float64(after.RefCacheHits-before.RefCacheHits), float64(after.ByRefRequests-before.ByRefRequests)))
	} else {
		p, err := byRefProbe(filepath.Join(env.dir, "probe"), env.pool, xd, prim.sets[0], prim.want[0])
		if err != nil {
			return err
		}
		r.set("tensor.map_ms", p.mapMs)
		r.set("tensor.tile_rows", float64(core.AutoTileRows(prim.dims, 0, 0)))
		r.set("transport.refcache_hit_ratio", p.refcacheHitRatio())
	}
	selfMs, share := cpdProbe(env.pool, xd, prim.sets[0][0].C, cfg.seed)
	r.set("cpd.self_ms", selfMs)
	r.set("cpd.mttkrp_share", share)
	commonProbes(r, env.pool, kernelProbe(env.pool, xd, prim.sets[0]), cfg.tiny, logf)

	// Spans: every nominal request from its due time to completion, with
	// the wait for a sender, and the client call split by the server's
	// decode and compute headers. Even-numbered requests are the traced
	// half for the overhead comparison.
	tr := newTracer(6 * len(nom))
	var traced, plain []float64
	for i := range nom {
		a := &nom[i]
		if i%2 == 1 {
			plain = append(plain, ms(a.latency()))
			continue
		}
		traced = append(traced, ms(a.latency()))
		if a.err != nil {
			continue
		}
		root := tr.addNs("request", int64(a.due), int64(a.done), -1, int64(i))
		tr.addNs("client.queue", int64(a.due), int64(a.sent), root, int64(i))
		call := tr.addNs("client.call", int64(a.sent), int64(a.sent+a.tm.Total), root, int64(i))
		tr.children(call, []string{"transport.decode", "serve.compute", "client.other"},
			[]time.Duration{a.tm.Decode, a.tm.Compute, a.tm.Total - a.tm.Decode - a.tm.Compute})
	}
	r.set("trace.overhead_ratio", ratio(median(traced), median(plain))-1)
	return finishTrace(cfg, out, r, tr, name)
}

func tensorSize(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// setCore sets the core.* phase metrics from per-operation phase times.
func setCore(r *result, phases map[core.Phase]float64, total float64) {
	var sum float64
	for _, v := range phases {
		sum += v
	}
	r.set("core.mttkrp_ms", total)
	r.set("core.gemm_ms", phases[core.PhaseGEMM])
	r.set("core.gemv_ms", phases[core.PhaseGEMV])
	r.set("core.krp_full_ms", phases[core.PhaseFullKRP])
	r.set("core.krp_lr_ms", phases[core.PhaseLRKRP])
	r.set("core.reduce_ms", phases[core.PhaseReduce])
	r.set("core.other_ms", total-sum)
}

// servingMetrics sets the serve.* and transport.* metrics from a set of
// served requests, the daemon's counters around them, and the direct
// kernel time of each (class, mode).
func servingMetrics(r *result, arr []arrival, before, after *transport.Stats, direct [][]float64) {
	var compute, decode, other, over []float64
	rejected := 0
	for i := range arr {
		a := &arr[i]
		var he *transport.HTTPError
		if errors.As(a.err, &he) {
			rejected++
		}
		if a.err != nil {
			continue
		}
		compute = append(compute, ms(a.tm.Compute))
		decode = append(decode, ms(a.tm.Decode))
		other = append(other, ms(a.tm.Total-a.tm.Decode-a.tm.Compute))
		over = append(over, ms(a.tm.Compute)-direct[a.class][a.mode])
	}
	cs := sortedCopy(compute)
	r.set("serve.compute_ms_p50", quantile(cs, 0.5))
	r.set("serve.compute_ms_p99", quantile(cs, 0.99))
	r.set("serve.overhead_ms", median(over))
	b, a := before.Serve, after.Serve
	r.set("serve.items_per_batch", ratio(float64(a.Submitted-b.Submitted), float64(a.Batches-b.Batches)))
	r.set("serve.fused_ratio", ratio(float64(a.Fused-b.Fused), float64(a.Batches-b.Batches)))
	r.set("serve.plan_cache_hits", float64(a.PlanCacheHits-b.PlanCacheHits))
	r.set("serve.max_queue_wait_ms", a.MaxQueueWaitMs)
	r.set("serve.peak_queued", float64(a.PeakQueued))
	dDecode, dCompute := float64(after.DecodeNs-before.DecodeNs), float64(after.ComputeNs-before.ComputeNs)
	dBytes := float64(after.BytesIn - before.BytesIn)
	r.set("transport.decode_ms_p50", median(decode))
	r.set("transport.decode_share", ratio(dDecode, dDecode+dCompute))
	r.set("transport.decode_gbps", ratio(dBytes, dDecode))
	r.set("transport.bytes_in_per_req", ratio(dBytes, float64(after.Requests-before.Requests)))
	r.set("transport.client_other_ms_p50", median(other))
	refused := after.QuotaRejected + after.DrainRejected + after.BadRequests + after.ShedRejected + after.RefRejected -
		(before.QuotaRejected + before.DrainRejected + before.BadRequests + before.ShedRejected + before.RefRejected)
	r.set("transport.rejected", float64(int64(rejected)+refused))
}

// mapProbe is the median time to map a tensor file and unmap it.
func mapProbe(path string) float64 {
	samples := make([]float64, 5)
	for i := range samples {
		t0 := time.Now()
		m, err := tensor.OpenDense(path)
		if err != nil {
			return 0
		}
		m.Close()
		samples[i] = ms(time.Since(t0))
	}
	return median(samples)
}

// byRefResult is what byRefProbe measured.
type byRefResult struct {
	arr           []arrival
	before, after *transport.Stats
	direct        [][]float64
	mapMs         float64
}

func (p *byRefResult) refcacheHitRatio() float64 {
	return ratio(float64(p.after.RefCacheHits-p.before.RefCacheHits), float64(p.after.ByRefRequests-p.before.ByRefRequests))
}

// byRefProbe writes x to a tensor file under dir and serves two rounds of
// one by-reference request per mode through a fresh in-process daemon,
// one request at a time. It also times mapping the file, and each mode's
// MTTKRP called directly on the mapping with the tiling the daemon uses.
func byRefProbe(dir string, pool *parallel.Pool, x *tensor.Dense, u, want []mat.View) (*byRefResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "x.dsnt")
	if err := tensor.WriteDenseFile(path, x); err != nil {
		return nil, err
	}
	info, err := tensor.StatDense(path)
	if err != nil {
		return nil, err
	}
	c := &reqClass{name: "probe", dims: x.Dims(), path: path, ref: transport.RefFor(info, "x.dsnt"), sets: [][]mat.View{u}, want: [][]mat.View{want}}
	p := &byRefResult{mapMs: mapProbe(path), direct: make([][]float64, 1)}
	m, err := tensor.OpenDense(path)
	if err != nil {
		return nil, err
	}
	for mode := range c.dims {
		o := withTiles(core.Options{Pool: pool}, m.Dense, mode)
		dst := mat.NewDense(c.dims[mode], u[0].C)
		core.ComputeInto(dst, core.MethodAuto, m.Dense, u, mode, o)
		p.direct[0] = append(p.direct[0], ms(best(2, func() { core.ComputeInto(dst, core.MethodAuto, m.Dense, u, mode, o) })))
	}
	m.Close()

	srv, err := startServer(dir, 1)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if p.before, err = srv.client.Stats(); err != nil {
		return nil, err
	}
	origin := time.Now()
	for round := 0; round < 2; round++ {
		for mode := range c.dims {
			a := arrival{mode: mode, due: time.Since(origin)}
			a.sent = a.due
			got, tm, err := c.send(srv.client, mat.View{}, 0, mode)
			a.tm, a.err, a.done = tm, err, time.Since(origin)
			if err == nil && relErr(got, want[mode]) > maxRelErr {
				a.err = fmt.Errorf("by-reference probe mode %d: result differs", mode)
			}
			p.arr = append(p.arr, a)
		}
	}
	if p.after, err = srv.client.Stats(); err != nil {
		return nil, err
	}
	return p, nil
}

// finishTrace sets the trace's own metrics, prints each span name's self
// time and writes the spans file when asked.
func finishTrace(cfg *config, out io.Writer, r *result, tr *tracer, workload string) error {
	r.set("trace.unaccounted_ratio", tr.unaccounted())
	self := tr.selfByName()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "# self %s %.3f ms\n", name, ms(self[name]))
	}
	if cfg.spansDir == "" {
		return nil
	}
	return tr.write(cfg.spansDir, workload)
}

package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Config sizes a transport Server.
type Config struct {
	// Serve configures the underlying admission-controlled scheduler
	// (pool width, per-request floor, admission cap, batching).
	Serve serve.Config
	// Quota bounds each client's request rate and in-flight bytes.
	Quota QuotaConfig
	// MaxPayloadBytes caps one request's decoded payload; 0 selects 1 GiB.
	MaxPayloadBytes int64
	// TensorRoot, when non-empty, enables by-reference requests
	// (/v1/mttkrp-ref): request paths resolve inside this directory only.
	// Paths with ".." or absolute components are rejected outright, and
	// symlinks are resolved before the containment check, so a link
	// pointing outside the root cannot smuggle a file in. Empty disables
	// the endpoint (404).
	TensorRoot string
	// MaxQueueDelay sheds load instead of queueing: when positive, a
	// request whose projected admission wait (scheduler backlog ÷ recent
	// service rate, priced by the request's cost) exceeds it is refused
	// with 429 and a Retry-After hint rather than queued. 0 queues
	// everything — the pre-shedding behavior.
	MaxQueueDelay time.Duration
}

// Stats is a snapshot of transport counters plus the scheduler's.
type Stats struct {
	// Requests counts everything that reached a compute endpoint;
	// QuotaRejected of those refused by a token bucket, DrainRejected by a
	// drain in progress, BadRequests by wire-format validation, Failed by
	// kernel errors.
	Requests      int64 `json:"requests"`
	QuotaRejected int64 `json:"quota_rejected"`
	DrainRejected int64 `json:"drain_rejected"`
	BadRequests   int64 `json:"bad_requests"`
	Failed        int64 `json:"failed"`
	// ShedRejected counts requests refused because their projected
	// admission wait exceeded Config.MaxQueueDelay (429 with Retry-After).
	ShedRejected int64 `json:"shed_rejected"`
	// ByRefRequests counts by-reference MTTKRP requests; RefRejected the
	// subset refused because the referenced file was unreadable or outside
	// the tensor root (404) or its identity no longer matched (409).
	// RefCacheHits counts by-ref requests served from the resident mapping
	// cache instead of re-opening and re-mapping the file.
	ByRefRequests int64 `json:"byref_requests"`
	RefRejected   int64 `json:"ref_rejected"`
	RefCacheHits  int64 `json:"refcache_hits"`
	// BytesIn / BytesOut count payload (not HTTP framing) bytes.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// DecodeNs and ComputeNs split served time between wire decode and
	// kernel execution (the benchmark ledger's transport.decode_share).
	DecodeNs  int64 `json:"decode_ns"`
	ComputeNs int64 `json:"compute_ns"`
	// Serve is the scheduler's own counter snapshot.
	Serve serve.Stats `json:"serve"`
}

// Server is the HTTP front end: quota checks, wire decode straight into
// pooled buffers, submission to the scheduler, and graceful drain. Create
// with NewServer, attach a listener with Serve (or ServeUntilSignal), stop
// with Shutdown (graceful) or Close (hard).
type Server struct {
	cfg    Config
	sched  *serve.Server
	quotas *quotaTable
	httpd  *http.Server
	refs   *mapCache // resident by-ref tensor mappings (nil: no tensor root)

	bufs     floatPool // request payload slabs
	idxs     int32Pool // sparse coordinate slabs
	dsts     floatPool // MTTKRP result buffers
	draining atomic.Bool

	requests, quotaRejected, drainRejected atomic.Int64
	badRequests, failed, shedRejected      atomic.Int64
	byRefRequests, refRejected             atomic.Int64
	refCacheHits                           atomic.Int64
	bytesIn, bytesOut                      atomic.Int64
	decodeNs, computeNs                    atomic.Int64
}

// NewServer builds the transport server and its scheduler. The caller owns
// the listener lifecycle (Serve / Shutdown, or ServeUntilSignal).
func NewServer(cfg Config) *Server {
	if cfg.MaxPayloadBytes <= 0 {
		cfg.MaxPayloadBytes = 1 << 30
	}
	s := &Server{
		cfg:    cfg,
		sched:  serve.New(cfg.Serve),
		quotas: newQuotaTable(cfg.Quota),
	}
	if cfg.TensorRoot != "" {
		s.refs = newMapCache(refCacheCap)
	}
	s.httpd = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Workers returns the scheduler pool's team width.
func (s *Server) Workers() int { return s.sched.Workers() }

// Stats returns a snapshot of transport and scheduler counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:      s.requests.Load(),
		QuotaRejected: s.quotaRejected.Load(),
		DrainRejected: s.drainRejected.Load(),
		BadRequests:   s.badRequests.Load(),
		Failed:        s.failed.Load(),
		ShedRejected:  s.shedRejected.Load(),
		ByRefRequests: s.byRefRequests.Load(),
		RefRejected:   s.refRejected.Load(),
		RefCacheHits:  s.refCacheHits.Load(),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
		DecodeNs:      s.decodeNs.Load(),
		ComputeNs:     s.computeNs.Load(),
		Serve:         s.sched.Stats(),
	}
}

// Handler returns the route table. It is exposed so tests (and embedders
// that already own an http.Server) can mount the transport under their own
// mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for op, path := range routes {
		if path == "" {
			continue
		}
		op := Op(op)
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			s.handleCompute(w, r, op)
		})
	}
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// Serve accepts connections on l until Shutdown or Close. It returns nil
// after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpd.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains gracefully: new submissions are refused with 503,
// in-flight requests (and their admitted tickets) run to completion, then
// the scheduler and worker pool are released. Safe to call while Serve is
// blocked; Serve then returns nil. ctx bounds the whole drain: if it
// expires first, Shutdown returns ctx's error while scheduler teardown
// continues in the background (running kernels are not preemptible — a
// supervisor acting on the timeout is abandoning them by design).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpd.Shutdown(ctx) // waits for in-flight handlers (ticket waits included)
	done := make(chan struct{})
	go func() {
		s.sched.Drain()
		s.sched.Close()
		if s.refs != nil {
			s.refs.drain() // handlers are done: unmap cached tensors
		}
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Close stops serving immediately: open connections are dropped and
// queued scheduler work fails with serve.ErrClosed.
func (s *Server) Close() error {
	s.draining.Store(true)
	err := s.httpd.Close()
	s.sched.Close()
	if s.refs != nil {
		// In-flight handlers still hold references; their mappings close
		// on release, the idle ones right here.
		s.refs.drain()
	}
	return err
}

// drainTimeout bounds the graceful drain ServeUntilSignal runs on a signal.
const drainTimeout = 60 * time.Second

// ServeUntilSignal serves on l until SIGINT/SIGTERM, then drains. When
// notify is non-nil it receives the listener's resolved address before
// serving starts (the way cmd/mttkrp-serve reports a :0 port).
func ServeUntilSignal(s *Server, l net.Listener, notify func(net.Addr)) error {
	if notify != nil {
		notify(l.Addr())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("transport: drain: %w", err)
		}
		return <-errc
	}
}

// clientKey identifies the quota principal of a request: explicit API
// token first, transport identity as the fallback.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if a := r.Header.Get("Authorization"); a != "" {
		return a
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// Timing response headers: the server-measured decode/compute split, which
// the benchmark ledger aggregates without a second stats round trip.
const (
	headerDecodeNs  = "X-Decode-Ns"
	headerComputeNs = "X-Compute-Ns"
)

// Admission request headers: clients may price and prioritize their own
// requests. X-Cost-Hint refines the scheduler's cost-model estimate (a
// positive float in model cost units, clamped to within costHintBound×
// of the server's own estimate so it cannot be used as a queue-jumping
// lever); X-Priority scales queue aging ("low", "normal" or "high").
const (
	headerCostHint = "X-Cost-Hint"
	headerPriority = "X-Priority"
)

// priorityWeight maps the X-Priority header onto an aging weight.
func priorityWeight(p string) (float64, error) {
	switch strings.ToLower(p) {
	case "", "normal":
		return 1, nil
	case "low":
		return 0.5, nil
	case "high":
		return 2, nil
	}
	return 0, fmt.Errorf("transport: unknown %s %q (want low, normal or high)", headerPriority, p)
}

// costHintBound caps how far the client-supplied X-Cost-Hint may deviate
// from the server's own model estimate, in either direction. A hint is a
// refinement channel for clients that know their workload, not a priority
// lever: an unbounded tiny hint would dominate the aging queue (score ~
// age/cost) and dodge MaxQueueDelay shedding for free.
const costHintBound = 16

// admission prices a request from its decoded wire header plus the
// optional client hints, and decides queue-versus-shed: when the
// projected admission wait exceeds MaxQueueDelay the request is refused
// up front (429 + Retry-After), before its payload is decoded.
func (s *Server) admission(w http.ResponseWriter, r *http.Request, h *Header) (cost, weight float64, ok bool) {
	weight, err := priorityWeight(r.Header.Get(headerPriority))
	if err != nil {
		s.badRequests.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, 0, false
	}
	if hint := r.Header.Get(headerCostHint); hint != "" {
		cost, err = strconv.ParseFloat(hint, 64)
		if err != nil || cost <= 0 || math.IsInf(cost, 0) || math.IsNaN(cost) {
			s.badRequests.Add(1)
			http.Error(w, fmt.Sprintf("transport: bad %s %q (want a positive float)", headerCostHint, hint), http.StatusBadRequest)
			return 0, 0, false
		}
	}
	model := s.sched.Model()
	var estimate float64
	switch h.Op {
	case OpCP:
		estimate = model.CP(h.Dims, h.Rank, h.sweeps(), h.Method)
	case OpSparseMTTKRP:
		// Priced from the header's nnz — before any payload is read —
		// so a sparse request's admission cost scales with its stored
		// entries, not its dense shape.
		estimate = model.SparseMTTKRP(h.NNZ, h.Dims, h.Rank)
	default:
		// Dense MTTKRP, shipped or by reference: a mapped tensor computes
		// as its dense shape.
		estimate = model.MTTKRP(h.Dims, h.Rank)
	}
	switch {
	case cost == 0:
		cost = estimate
	case cost < estimate/costHintBound:
		cost = estimate / costHintBound
	case cost > estimate*costHintBound:
		cost = estimate * costHintBound
	}
	if s.cfg.MaxQueueDelay > 0 {
		if wait := s.sched.ProjectedWait(cost); wait > s.cfg.MaxQueueDelay {
			s.shedRejected.Add(1)
			w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(wait), 10))
			http.Error(w, fmt.Sprintf("projected queue delay %v exceeds %v", wait.Round(time.Millisecond), s.cfg.MaxQueueDelay), http.StatusTooManyRequests)
			return 0, 0, false
		}
	}
	return cost, weight, true
}

// retryAfterSeconds converts a projected wait into the Retry-After header
// value: ceiled to whole seconds, never below 1. Retry-After carries
// integer seconds, so a sub-second wait must round up — truncation would
// report 0 and tell a well-behaved client to hammer the server again
// immediately — and an exact multiple must not gain a spurious extra
// second (the historical floor+1).
func retryAfterSeconds(wait time.Duration) int64 {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleCompute is the shared data path of every compute route; a request
// whose op is not the route's wantOp is a 400.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request, wantOp Op) {
	s.requests.Add(1)
	if s.draining.Load() {
		s.drainRejected.Add(1)
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	key := clientKey(r)
	now := time.Now()
	if !s.quotas.allowRequest(key, now) {
		s.quotaRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "request rate quota exceeded", http.StatusTooManyRequests)
		return
	}

	t0 := time.Now()
	h, err := ReadHeader(r.Body)
	if err != nil {
		s.badRequests.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if h.Op != wantOp {
		s.badRequests.Add(1)
		http.Error(w, fmt.Sprintf("transport: op %d on the op-%d endpoint", h.Op, wantOp), http.StatusBadRequest)
		return
	}
	if err := h.Validate(s.cfg.MaxPayloadBytes); err != nil {
		s.badRequests.Add(1)
		status := http.StatusBadRequest
		if errors.Is(err, ErrPayloadTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	cost, weight, ok := s.admission(w, r, h)
	if !ok {
		return
	}
	payload := h.PayloadBytes()
	if !s.quotas.acquireBytes(key, payload, now) {
		s.quotaRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "in-flight byte quota exceeded", http.StatusTooManyRequests)
		return
	}
	defer s.quotas.releaseBytes(key, payload, now)

	// Read the payload straight into pooled slabs: the request's floats
	// (and the int32 coordinates a sparse header promises) materialize
	// exactly once, and the slabs go back to their pools when the
	// response has been written.
	buf := s.bufs.get(h.PayloadFloats())
	defer s.bufs.put(buf)
	var idx []int32
	if n := h.IndexInts(); n > 0 {
		idx = s.idxs.get(n)
		defer s.idxs.put(idx)
	}
	x, factors, err := DecodeRequest(r.Body, h, idx, buf)
	if err != nil {
		s.badRequests.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if h.byRef() {
		// Resolve the reference against the tensor root: the mapped file
		// replaces the wire tensor. Open + identity check count as decode
		// time — they are this path's whole ingestion cost.
		s.byRefRequests.Add(1)
		ent, status, rerr := s.resolveRef(&h.Ref, h.Dims)
		if rerr != nil {
			s.refRejected.Add(1)
			http.Error(w, rerr.Error(), status)
			return
		}
		defer ent.Release()
		x = ent.Map().Dense
	}
	decode := time.Since(t0)
	s.bytesIn.Add(payload)
	s.decodeNs.Add(decode.Nanoseconds())

	switch h.Op {
	case OpMTTKRP, OpSparseMTTKRP, OpMTTKRPByRef:
		rows := h.Dims[h.Mode]
		dstBuf := s.dsts.get(rows * h.Rank)
		defer s.dsts.put(dstBuf)
		dst := mat.FromRowMajor(dstBuf, rows, h.Rank)
		c0 := time.Now()
		m, err := s.sched.SubmitMTTKRP(serve.MTTKRPRequest{
			X: x, Factors: factors, Mode: h.Mode, Method: h.Method, Dst: dst,
			CostHint: cost, Weight: weight,
		}).MTTKRP()
		compute := time.Since(c0)
		s.computeNs.Add(compute.Nanoseconds())
		if err != nil {
			s.failComputeError(w, err)
			return
		}
		hdr := w.Header()
		hdr.Set("Content-Type", "application/x-tensor-wire")
		hdr.Set("Content-Length", strconv.FormatInt(MatrixWireSize(m.R, m.C), 10))
		hdr.Set(headerDecodeNs, strconv.FormatInt(decode.Nanoseconds(), 10))
		hdr.Set(headerComputeNs, strconv.FormatInt(compute.Nanoseconds(), 10))
		if err := WriteMatrix(w, m); err != nil {
			return // client went away mid-response; nothing to report
		}
		s.bytesOut.Add(MatrixWireSize(m.R, m.C))
	case OpCP:
		c0 := time.Now()
		res, err := s.sched.SubmitCP(serve.CPRequest{X: x, Config: cpd.Config{
			Rank: h.Rank, MaxIters: h.sweeps(), Method: h.Method, Seed: h.Seed,
		}, CostHint: cost, Weight: weight}).CP()
		compute := time.Since(c0)
		s.computeNs.Add(compute.Nanoseconds())
		if err != nil {
			s.failComputeError(w, err)
			return
		}
		hdr := w.Header()
		hdr.Set("Content-Type", "application/x-ktensor-wire")
		hdr.Set(headerDecodeNs, strconv.FormatInt(decode.Nanoseconds(), 10))
		hdr.Set(headerComputeNs, strconv.FormatInt(compute.Nanoseconds(), 10))
		hdr.Set("X-CP-Fit", strconv.FormatFloat(res.Fit, 'g', -1, 64))
		hdr.Set("X-CP-Iters", strconv.Itoa(res.Iters))
		if err := WriteKTensor(w, res.K); err != nil {
			return
		}
	}
}

// resolveRef resolves the tensor file a by-reference request names to a
// referenced mapping-cache entry, enforcing the tensor-root sandbox and
// the identity the client declared. The mapping comes from the resident
// cache when a previous request already mapped this file (a hit costs one
// revalidating stat instead of an open+map+checksum); either way the
// request holds a reference until Release. The returned status is the
// HTTP code to fail with when err is non-nil: 404 for anything unreadable
// or outside the root (indistinguishable by design — probing the
// filesystem through error codes stays blind), 400 for structurally
// illegal paths, 409 when the file exists but is no longer the version
// the client observed.
//
// The per-request identity checks run against the cached mapping too: a
// client holding a stale ref gets its 409 even on a cache hit, and a
// rewritten file fails the acquire-time Stale revalidation, evicting the
// dead mapping so the reopen sees the new bytes.
func (s *Server) resolveRef(ref *TensorRef, dims []int) (*mapEntry, int, error) {
	if s.cfg.TensorRoot == "" || s.refs == nil {
		return nil, http.StatusNotFound, errors.New("transport: by-reference requests disabled (no tensor root configured)")
	}
	p := filepath.FromSlash(ref.Path)
	if !filepath.IsLocal(p) {
		return nil, http.StatusBadRequest, fmt.Errorf("transport: ref path %q escapes the tensor root", ref.Path)
	}
	root, err := filepath.EvalSymlinks(s.cfg.TensorRoot)
	if err != nil {
		return nil, http.StatusNotFound, errors.New("transport: tensor root unavailable")
	}
	// Resolve symlinks before the containment check: a link inside the
	// root pointing outside it must be caught by where it lands, not by
	// where it lives.
	resolved, err := filepath.EvalSymlinks(filepath.Join(root, p))
	if err != nil {
		return nil, http.StatusNotFound, fmt.Errorf("transport: tensor file %q unreadable", ref.Path)
	}
	if rel, err := filepath.Rel(root, resolved); err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return nil, http.StatusBadRequest, fmt.Errorf("transport: ref path %q resolves outside the tensor root", ref.Path)
	}
	ent, hit := s.refs.acquire(resolved)
	if hit {
		s.refCacheHits.Add(1)
	} else {
		if fi, err := os.Stat(resolved); err != nil || !fi.Mode().IsRegular() {
			return nil, http.StatusNotFound, fmt.Errorf("transport: tensor file %q unreadable", ref.Path)
		}
		m, err := tensor.OpenDense(resolved)
		if err != nil {
			return nil, http.StatusNotFound, fmt.Errorf("transport: tensor file %q unreadable", ref.Path)
		}
		ent = s.refs.insert(resolved, m)
	}
	m := ent.Map()
	if m.ModTime().UnixNano() != ref.MTime || m.FileSize() != ref.Size || m.Checksum() != ref.Checksum {
		ent.Release()
		return nil, http.StatusConflict, fmt.Errorf("transport: tensor file %q changed since the client observed it", ref.Path)
	}
	if !slices.Equal(m.Dims(), dims) {
		ent.Release()
		return nil, http.StatusConflict, fmt.Errorf("transport: tensor file %q is shaped %v, request declares %v", ref.Path, m.Dims(), dims)
	}
	if m.Stale() {
		// The file changed between open and map: drop the dead mapping
		// from the cache so the client's retry re-opens the new version.
		s.refs.evict(ent)
		ent.Release()
		return nil, http.StatusConflict, fmt.Errorf("transport: tensor file %q changed after map", ref.Path)
	}
	return ent, 0, nil
}

// failComputeError maps a scheduler/kernel error onto an HTTP status: a
// drain is retryable (503, counted as DrainRejected), everything else is
// a kernel failure (500, counted as Failed).
func (s *Server) failComputeError(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrClosed) {
		s.drainRejected.Add(1)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.failed.Add(1)
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

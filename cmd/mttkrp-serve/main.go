// Command mttkrp-serve is the serving daemon over the concurrent
// scheduler, with two front ends sharing one admission-controlled worker
// pool:
//
// Stdin-jsonl (the default): one JSON request per line on stdin, one JSON
// response per line on stdout, in completion order (responses carry the
// request id). Tensors are generated deterministically from (dims, seed)
// and cached server-side:
//
//	{"id":"a1","op":"mttkrp","dims":[60,50,40],"rank":8,"mode":1,"seed":3}
//	{"id":"a2","op":"cp","dims":[30,30,30],"rank":4,"iters":5,"seed":1}
//	{"id":"a3","op":"mttkrp","dims":[60,50,40],"rank":8,"mode":1,"seed":3,"density":0.01}
//	{"id":"a4","op":"stats"}
//
// A "density" in (0, 1] generates a sparse (COO) tensor at that fill
// fraction instead of a dense one; the request then runs the
// nnz-partitioned sparse kernel and is priced by its stored entries.
//
// HTTP (-listen addr): a network listener speaking the compact binary
// wire format of internal/transport — clients ship real tensor payloads
// (POST /v1/mttkrp, /v1/cp; GET /v1/stats, /healthz), per-client
// token-bucket quotas apply (-rps, -burst, -maxinflight, keyed by the
// X-API-Key header), and SIGTERM drains gracefully: admitted tickets
// finish, new submissions see 503, then the process exits 0. With
// -tensor-root DIR, clients may additionally POST by-reference requests
// (/v1/mttkrp-ref) naming a mappable tensor file inside DIR instead of
// shipping the tensor payload; the server maps the file and streams the
// kernel through row tiles, so the referenced tensor may exceed RAM.
//
// Usage:
//
//	mttkrp-serve [-workers N] [-minworkers N] [-maxactive N] [-nobatch] [-maxshare F]
//	mttkrp-serve -listen :8080 [-rps R] [-burst B] [-maxinflight BYTES] [-maxpayload BYTES] [-maxqueuedelay D] [-tensor-root DIR]
//
// Admission is cost-aware: budgets are weighted by request cost (tensor
// size × rank), the queue ages so small requests are not convoyed behind
// large ones, and running leases are rebalanced at kernel phase
// boundaries. HTTP clients may send X-Cost-Hint and X-Priority
// (low|normal|high) headers; with -maxqueuedelay the daemon sheds (429 +
// Retry-After) requests whose projected queue delay exceeds it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/transport"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// request is one protocol line.
type request struct {
	ID     string `json:"id"`
	Op     string `json:"op"`     // "mttkrp", "cp" or "stats"
	Dims   []int  `json:"dims"`   // tensor shape
	Rank   int    `json:"rank"`   // C
	Mode   int    `json:"mode"`   // MTTKRP mode n
	Method string `json:"method"` // "auto" (default), "1step", "2step", "reorder" (see cli.ParseMethod)
	Seed   int64  `json:"seed"`   // tensor/factor generator seed
	Iters  int    `json:"iters"`  // CP sweeps (default transport.DefaultIters)
	// Density in (0, 1] makes the generated tensor sparse (COO) at that
	// fill fraction; 0 (the default) keeps it dense.
	Density float64 `json:"density"`
}

// response is one protocol line back.
type response struct {
	ID    string             `json:"id"`
	OK    bool               `json:"ok"`
	Err   string             `json:"error,omitempty"`
	Rows  int                `json:"rows,omitempty"`
	Cols  int                `json:"cols,omitempty"`
	Sum   float64            `json:"sum,omitempty"`
	Fit   float64            `json:"fit,omitempty"`
	Iters int                `json:"iters,omitempty"`
	Ms    float64            `json:"ms"`
	Stats *repro.ServerStats `json:"stats,omitempty"`
}

// problemCache builds and retains the deterministic (dims, seed, rank)
// tensors and factor sets the daemon serves against.
type problemCache struct {
	mu sync.Mutex
	m  map[string]*problem
}

type problem struct {
	x repro.AnyTensor
	u []repro.Matrix
}

// Resource ceilings for one cached problem and for the cache as a whole:
// a request line must not be able to OOM the daemon, and a varied
// workload must not grow memory without bound.
const (
	maxOrder       = 8
	maxEntries     = 1 << 24 // ≤ 128 MiB of float64 tensor per problem
	maxCachedProbs = 32
)

func (c *problemCache) get(dims []int, rank int, seed int64, density float64) (*problem, error) {
	if len(dims) < 2 || len(dims) > maxOrder {
		return nil, fmt.Errorf("need 2..%d dims, got %v", maxOrder, dims)
	}
	entries := 1
	for _, d := range dims {
		if d < 1 || d > 1<<12 {
			return nil, fmt.Errorf("dimension %d out of range [1, 4096]", d)
		}
		if entries > maxEntries/d {
			return nil, fmt.Errorf("tensor %v exceeds the %d-entry serving cap", dims, maxEntries)
		}
		entries *= d
	}
	if rank < 1 || rank > 1<<10 {
		return nil, fmt.Errorf("rank %d out of range [1, 1024]", rank)
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("density %g out of range (0, 1]", density)
	}
	key := fmt.Sprintf("%v|c%d|s%d|d%g", dims, rank, seed, density)
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[key]; ok {
		return p, nil
	}
	rng := newRNG(seed)
	p := &problem{}
	if density > 0 {
		p.x = repro.RandomSparseTensor(rng, density, dims...)
	} else {
		p.x = repro.RandomTensor(rng, dims...)
	}
	for k := 0; k < p.x.Order(); k++ {
		p.u = append(p.u, repro.RandomMatrix(p.x.Dim(k), rank, rng))
	}
	if c.m == nil {
		c.m = make(map[string]*problem)
	}
	if len(c.m) >= maxCachedProbs {
		// Evict one arbitrary resident (map order): keeps the cache
		// bounded without bookkeeping; a re-requested problem regenerates
		// deterministically from its seed.
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = p
	return p, nil
}

// newRNG is the daemon's deterministic generator: one seed fully
// determines a problem, so a load generator and a checker agree on sums.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// run is the daemon body with explicit streams so tests can drive it.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mttkrp-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 0, "server pool width (0 = GOMAXPROCS)")
	minWorkers := fs.Int("minworkers", 1, "admission floor: minimum workers per request")
	maxActive := fs.Int("maxactive", 0, "max concurrently executing requests (0 = workers/minworkers)")
	noBatch := fs.Bool("nobatch", false, "disable same-shape request batching")
	maxShare := fs.Float64("maxshare", 0, "cost-aware admission: cap one request's share of the pool width, 0 < v <= 1 (0 = no cap)")
	maxQueueDelay := fs.Duration("maxqueuedelay", 0, "HTTP: shed requests (429) whose projected queue delay exceeds this (0 = queue everything)")
	listen := fs.String("listen", "", "serve the binary HTTP transport on this address (e.g. :8080) instead of stdin-jsonl")
	rps := fs.Float64("rps", 0, "HTTP: per-client sustained request rate (0 = unlimited)")
	burst := fs.Int("burst", 0, "HTTP: per-client burst depth (0 = ceil(rps))")
	maxInflight := fs.Int64("maxinflight", 0, "HTTP: per-client in-flight payload byte cap (0 = unlimited)")
	maxPayload := fs.Int64("maxpayload", 0, "HTTP: largest accepted request payload in bytes (0 = 1 GiB)")
	tensorRoot := fs.String("tensor-root", "", "HTTP: enable by-reference requests (/v1/mttkrp-ref) resolving tensor files inside this directory (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.UsageError{} // the FlagSet already printed message and usage
	}
	if fs.NArg() > 0 {
		return cli.UsageError{Msg: fmt.Sprintf("unexpected argument %q (requests arrive on stdin or -listen)", fs.Arg(0))}
	}
	if *listen == "" && (*rps != 0 || *burst != 0 || *maxInflight != 0 || *maxPayload != 0 || *maxQueueDelay != 0 || *tensorRoot != "") {
		return cli.UsageError{Msg: "-rps/-burst/-maxinflight/-maxpayload/-maxqueuedelay/-tensor-root apply to the HTTP front end; pass -listen"}
	}

	serveCfg := repro.ServerConfig{
		Workers:         *workers,
		MinWorkers:      *minWorkers,
		MaxActive:       *maxActive,
		DisableBatching: *noBatch,
		MaxShare:        *maxShare,
	}

	if *listen != "" {
		return runHTTP(*listen, repro.TransportConfig{
			Serve: serveCfg,
			Quota: repro.QuotaConfig{
				RequestsPerSec:   *rps,
				Burst:            *burst,
				MaxInflightBytes: *maxInflight,
			},
			MaxPayloadBytes: *maxPayload,
			MaxQueueDelay:   *maxQueueDelay,
			TensorRoot:      *tensorRoot,
		}, stderr)
	}

	srv := repro.NewServer(serveCfg)
	fmt.Fprintf(stderr, "mttkrp-serve: %d workers, floor %d, serving on stdin\n", srv.Workers(), *minWorkers)

	var outMu sync.Mutex
	enc := json.NewEncoder(stdout)
	emit := func(r response) {
		outMu.Lock()
		enc.Encode(r)
		outMu.Unlock()
	}

	cache := &problemCache{}
	var wg sync.WaitGroup
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var req request
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			emit(response{ID: req.ID, Err: fmt.Sprintf("line %d: %v", lineNo, err)})
			continue
		}
		if req.ID == "" {
			req.ID = fmt.Sprintf("line-%d", lineNo)
		}
		switch req.Op {
		case "stats":
			st := srv.Stats()
			emit(response{ID: req.ID, OK: true, Stats: &st})
		case "mttkrp":
			method, err := cli.ParseMethod(req.Method)
			if err != nil {
				emit(response{ID: req.ID, Err: err.Error()})
				continue
			}
			p, err := cache.get(req.Dims, req.Rank, req.Seed, req.Density)
			if err != nil {
				emit(response{ID: req.ID, Err: err.Error()})
				continue
			}
			start := time.Now()
			tk := srv.SubmitMTTKRP(repro.MTTKRPRequest{X: p.x, Factors: p.u, Mode: req.Mode, Method: method})
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				m, err := tk.MTTKRP()
				ms := float64(time.Since(start).Microseconds()) / 1e3
				if err != nil {
					emit(response{ID: id, Err: err.Error(), Ms: ms})
					return
				}
				emit(response{ID: id, OK: true, Rows: m.R, Cols: m.C, Sum: matSum(m), Ms: ms})
			}(req.ID)
		case "cp":
			iters := req.Iters
			if iters <= 0 {
				iters = transport.DefaultIters
			}
			if iters > transport.MaxIters {
				emit(response{ID: req.ID, Err: fmt.Sprintf("iters %d above the %d-sweep serving cap", iters, transport.MaxIters)})
				continue
			}
			p, err := cache.get(req.Dims, req.Rank, req.Seed, req.Density)
			if err != nil {
				emit(response{ID: req.ID, Err: err.Error()})
				continue
			}
			start := time.Now()
			tk := srv.SubmitCP(repro.CPRequest{X: p.x, Config: repro.CPConfig{
				Rank: req.Rank, MaxIters: iters, Tol: -1, Seed: req.Seed,
			}})
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				res, err := tk.CP()
				ms := float64(time.Since(start).Microseconds()) / 1e3
				if err != nil {
					emit(response{ID: id, Err: err.Error(), Ms: ms})
					return
				}
				emit(response{ID: id, OK: true, Fit: res.Fit, Iters: res.Iters, Ms: ms})
			}(req.ID)
		default:
			emit(response{ID: req.ID, Err: fmt.Sprintf("unknown op %q (want mttkrp, cp or stats)", req.Op)})
		}
	}
	wg.Wait()
	srv.Close()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stdin: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(stderr, "mttkrp-serve: done — %d submitted, %d completed (%d failed), %d batches (%d coalesced), peak %d active / %d queued, max queue wait %.1f ms, %d aged reorders\n",
		st.Submitted, st.Completed, st.Failed, st.Batches, st.Coalesced, st.PeakActive, st.PeakQueued, st.MaxQueueWaitMs, st.Reordered)
	return nil
}

// runHTTP is the network front end: a transport listener over the same
// scheduler, serving until SIGINT/SIGTERM and then draining so admitted
// tickets finish. It prints the resolved listen address to stderr first —
// supervisors (and the e2e test) parse it to discover a :0 port.
func runHTTP(addr string, cfg repro.TransportConfig, stderr io.Writer) error {
	ts := repro.NewTransport(cfg)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	err = repro.ServeTransport(ts, l, func(a net.Addr) {
		fmt.Fprintf(stderr, "mttkrp-serve: listening on http://%s (%d workers)\n", a, ts.Workers())
	})
	st := ts.Stats()
	fmt.Fprintf(stderr, "mttkrp-serve: drained — %d requests (%d quota-rejected, %d shed, %d drain-rejected, %d bad, %d failed), %s in, %s out\n",
		st.Requests, st.QuotaRejected, st.ShedRejected, st.DrainRejected, st.BadRequests, st.Failed,
		cli.FormatBytes(st.BytesIn), cli.FormatBytes(st.BytesOut))
	return err
}

func matSum(m repro.Matrix) float64 {
	s := 0.0
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			s += m.At(i, j)
		}
	}
	return s
}

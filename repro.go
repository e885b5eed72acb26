// Package repro is a shared-memory parallel library for tensor MTTKRP
// (matricized-tensor times Khatri-Rao product) and CP decomposition,
// reproducing Hayashi, Ballard, Jiang & Tobia, "Shared-Memory
// Parallelization of MTTKRP for Dense Tensors" (PPoPP 2018), and
// extending its runtime to sparse (COO) tensors as a first-class
// workload.
//
// Two tensor layouts share one shape-generic API. Dense tensors are
// stored once in the natural generalized column-major linearization and
// never reordered — the MTTKRP kernels multiply strided views of that
// buffer directly. Sparse tensors hold sorted, deduplicated COO
// coordinates and run a compressed-fiber kernel that scales with the
// stored-entry count. Both implement AnyTensor, and MTTKRP/CP dispatch
// on the layout.
//
// Quick start:
//
//	x := repro.RandomTensor(rand.New(rand.NewSource(1)), 60, 50, 40)
//	res, err := repro.CP(x, repro.CPConfig{Rank: 8})
//	// res.K.Factors[n] is the I_n × 8 factor of mode n.
//
// The low-level kernels are available directly, for either layout:
//
//	m := repro.MTTKRP(x, factors, mode, repro.MTTKRPOptions{Threads: 8})
//	s := repro.RandomSparseTensor(rng, 0.01, 500, 400, 300)
//	m = repro.MTTKRP(s, factors, mode, repro.MTTKRPOptions{Threads: 8})
//
// See DESIGN.md for the algorithm inventory (§13 for the sparse layout
// and wire format) and EXPERIMENTS.md for the reproduction of the
// paper's figures.
package repro

import (
	"math/rand"
	"net"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/krp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/ttm"
	"repro/internal/tucker"
)

// AnyTensor is the shape-generic tensor: *Dense, *Sparse or a
// *MappedTensor, which computes as the *Dense it embeds. Every
// layout-dispatching entry point (MTTKRP, CP, a Server submission) takes
// one; the concrete constructors below return the concrete types, so
// layout-specific methods stay available without assertions.
type AnyTensor = tensor.Interface

// Dense is a dense N-way tensor in natural (generalized column-major)
// layout. See the methods of tensor.Dense for accessors, matricization
// views and utilities.
type Dense = tensor.Dense

// Sparse is a sparse N-way tensor in sorted, deduplicated COO form with
// cached per-mode compressed fiber layouts. See the methods of
// tensor.Sparse for accessors and conversion.
type Sparse = tensor.Sparse

// Layout identifies a tensor's storage layout (LayoutDense, LayoutCOO).
type Layout = tensor.Layout

// Tensor layouts.
const (
	LayoutDense = tensor.LayoutDense
	LayoutCOO   = tensor.LayoutCOO
)

// Matrix is a strided dense matrix view; factor matrices are row-major
// Matrix values.
type Matrix = mat.View

// KTensor is a rank-C Kruskal tensor (weights + factor matrices).
type KTensor = cpd.KTensor

// Method selects an MTTKRP algorithm.
type Method = core.Method

// MTTKRP algorithm choices.
const (
	// MethodAuto uses the paper's hybrid for one MTTKRP: 1-step for
	// external modes, 2-step for internal modes (the default). In CP it
	// selects the dimension-tree sweep.
	MethodAuto = core.MethodAuto
	// MethodOneStep is the paper's 1-step algorithm (Algorithm 3).
	MethodOneStep = core.MethodOneStep
	// MethodTwoStep is Phan et al.'s 2-step algorithm (Algorithm 4).
	MethodTwoStep = core.MethodTwoStep
	// MethodReorder is the explicit-reorder Bader–Kolda baseline.
	MethodReorder = core.MethodReorder
)

// MTTKRPOptions configures an MTTKRP call.
type MTTKRPOptions = core.Options

// Breakdown collects per-phase MTTKRP timings.
type Breakdown = core.Breakdown

// CPConfig configures a CP-ALS run.
type CPConfig = cpd.Config

// CPResult reports a CP-ALS run.
type CPResult = cpd.Result

// NewTensor allocates a zero dense tensor with the given (positive)
// dimensions.
func NewTensor(dims ...int) *Dense { return tensor.New(dims...) }

// TensorFromData wraps an existing natural-layout buffer without copying.
func TensorFromData(data []float64, dims ...int) *Dense {
	return tensor.FromData(data, dims...)
}

// RandomTensor returns a dense tensor with uniform [0, 1) entries.
func RandomTensor(rng *rand.Rand, dims ...int) *Dense {
	return tensor.Random(rng, dims...)
}

// NewSparseTensor builds a sparse tensor from COO triples: idx[k][p] is
// entry p's coordinate along mode k, vals[p] its value. The slices are
// taken over (not copied); entries are sorted lexicographically and
// duplicate coordinates are summed. Out-of-range coordinates and
// mismatched lengths return an error.
func NewSparseTensor(dims []int, idx [][]int32, vals []float64) (*Sparse, error) {
	return tensor.SparseFromCOO(dims, idx, vals)
}

// RandomSparseTensor returns a sparse tensor with round(density · Π dims)
// distinct uniformly-placed entries (at least one), values uniform in
// [0, 1).
func RandomSparseTensor(rng *rand.Rand, density float64, dims ...int) *Sparse {
	return tensor.RandomSparse(rng, density, dims...)
}

// NewMatrix allocates a rows × cols row-major matrix.
func NewMatrix(rows, cols int) Matrix { return mat.NewDense(rows, cols) }

// RandomMatrix returns a rows × cols row-major matrix with uniform [0, 1)
// entries.
func RandomMatrix(rows, cols int, rng *rand.Rand) Matrix {
	return mat.RandomDense(rows, cols, rng)
}

// Pool is a persistent fork-join worker team with reusable per-worker
// workspaces — the runtime all kernels execute on. The zero value of
// MTTKRPOptions/CPConfig uses a shared process-wide pool; create one Pool
// per concurrent request (and Close it when done) to isolate workloads —
// or, for many concurrent requests, use a Server, which shares one pool
// across all of them under an admission policy.
type Pool = parallel.Pool

// NewPool creates a pool with the given number of persistent workers
// (0 = GOMAXPROCS). Close it when no longer needed.
func NewPool(workers int) *Pool { return parallel.NewPool(workers) }

// Server is the concurrent serving runtime: an admission-controlled
// scheduler that shares one worker pool across concurrent MTTKRP and CP
// requests — worker budgets weighted by each request's cost share under a
// CostModel (floored at MinWorkers, capped at MaxShare), an aging
// admission queue so small requests are not convoyed behind large ones,
// and rebalancing as requests arrive and finish with changes applied at
// running requests' kernel phase boundaries — and coalesces same-shape
// MTTKRP requests into batches on shared warmed workspaces. Submit with
// SubmitMTTKRP/SubmitCP; results arrive through Tickets. Close when done.
type Server = serve.Server

// ServerConfig sizes a Server (worker count, per-request floor, admission
// cap, batching) and tunes its cost-aware admission policy: budgets by
// CostModel cost share with an aging queue (MaxShare, AgeBias knobs).
type ServerConfig = serve.Config

// CostModel estimates a request's admission cost from its problem shape
// (flops ≈ Π dims × rank per mode, bytes ≈ tensor + factor footprint); the
// scheduler weights worker budgets by cost share and ages the admission
// queue with it.
type CostModel = serve.CostModel

// ServerStats is a snapshot of a Server's scheduler counters, including
// queue depth, oldest-queued age, aging reorders, and the per-request
// grant table (RequestStat entries with granted budgets and queue ages).
type ServerStats = serve.Stats

// RequestStat describes one active or queued request in a ServerStats
// snapshot: kind, cost, granted worker budget (0 while queued) and queue
// age.
type RequestStat = serve.RequestStat

// Ticket is the async completion handle of a submitted request.
type Ticket = serve.Ticket

// MTTKRPRequest describes one MTTKRP submission to a Server.
type MTTKRPRequest = serve.MTTKRPRequest

// CPRequest describes one CP-ALS submission to a Server.
type CPRequest = serve.CPRequest

// NewServer creates a serving runtime with its own worker pool.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// ErrDraining reports a submission refused because a Server (or the
// transport in front of it) has begun a graceful drain.
var ErrDraining = serve.ErrDraining

// Transport is the network front end of a Server: an HTTP listener
// speaking a compact binary wire format, one request header for every op
// (dense and sparse tensors, CP, and by-reference requests that name a
// server-resident DSNT file), with per-client token-bucket quotas and
// graceful drain. Create with
// NewTransport; attach a listener with its Serve/ListenAndServe methods
// or ServeTransport.
type Transport = transport.Server

// TransportConfig sizes a Transport: the scheduler underneath, quotas,
// and payload ceilings.
type TransportConfig = transport.Config

// QuotaConfig bounds each client's request rate and in-flight payload
// bytes on a Transport (clients are keyed by the X-API-Key header).
type QuotaConfig = transport.QuotaConfig

// TransportStats snapshots a Transport's counters (requests, rejections,
// bytes, decode/compute split) plus the scheduler's.
type TransportStats = transport.Stats

// Client speaks the binary wire protocol to a Transport listener.
type Client = transport.Client

// TransportError is a non-2xx response surfaced by a Client: quota
// rejections arrive as StatusCode 429, drains as 503.
type TransportError = transport.HTTPError

// TransportTiming is one round trip's cost split: server-side wire decode
// and kernel compute, plus the client-observed total.
type TransportTiming = transport.Timing

// NewTransport builds a network serving front end and its scheduler.
func NewTransport(cfg TransportConfig) *Transport { return transport.NewServer(cfg) }

// ListenAndServe runs a Transport on addr until SIGINT/SIGTERM, then
// drains gracefully (admitted tickets finish, new submissions see 503)
// and returns.
func ListenAndServe(addr string, cfg TransportConfig) error {
	return transport.ListenAndServe(addr, cfg)
}

// ServeTransport serves t on l until SIGINT/SIGTERM, then drains. notify,
// when non-nil, receives the resolved listen address before serving
// starts (how a daemon reports a :0 port).
func ServeTransport(t *Transport, l net.Listener, notify func(net.Addr)) error {
	return transport.ServeUntilSignal(t, l, notify)
}

// NewClient returns a Client for the Transport listener at baseURL
// (e.g. "http://127.0.0.1:8080").
func NewClient(baseURL string) *Client { return transport.NewClient(baseURL) }

// MTTKRP computes M = X_(n) · (U_{N-1} ⊙ ⋯ ⊙ U_{n+1} ⊙ U_{n-1} ⊙ ⋯ ⊙ U₀)
// for a tensor of either layout, returning the I_n × C row-major result.
// Factor k must be I_k × C row-major. Dense tensors run the method
// selected in opts (MethodAuto — the paper's hybrid — by default); sparse
// tensors run the compressed-fiber kernel.
func MTTKRP(x AnyTensor, factors []Matrix, n int, opts MTTKRPOptions) Matrix {
	return core.Run(core.Request{X: x, Factors: factors, Mode: n, Opts: opts})
}

// MTTKRPWith computes the MTTKRP with an explicit algorithm choice
// (meaningful for dense tensors; a sparse tensor has one kernel and
// ignores it, except MethodNaive, which runs the densified reference).
func MTTKRPWith(method Method, x AnyTensor, factors []Matrix, n int, opts MTTKRPOptions) Matrix {
	return core.Run(core.Request{X: x, Factors: factors, Mode: n, Method: method, Opts: opts})
}

// MTTKRPInto computes the MTTKRP into a caller-owned contiguous row-major
// I_n × C matrix and returns it. With a retained dst and opts.Pool set,
// repeated same-shape calls reuse the pool's workspaces and allocate
// nothing — the steady-state entry point for serving and ALS-style loops,
// for both layouts (a sparse tensor's fiber layout is built on the first
// call per mode and cached).
func MTTKRPInto(dst Matrix, method Method, x AnyTensor, factors []Matrix, n int, opts MTTKRPOptions) Matrix {
	return core.Run(core.Request{X: x, Factors: factors, Mode: n, Method: method, Dst: dst, Opts: opts})
}

// KhatriRao computes the Khatri-Rao product of the given matrices
// (row-major, equal column counts) into a fresh (∏ rows) × C matrix, using
// the paper's row-wise algorithm with partial-product reuse, parallelized
// over threads workers of the default pool.
func KhatriRao(threads int, mats ...Matrix) Matrix {
	out := mat.NewDense(krp.NumRows(mats), mats[0].C)
	p := parallel.OrDefault(nil)
	ws := p.Acquire()
	krp.ParallelOn(p, ws, threads, mats, out)
	ws.Release()
	return out
}

// CP computes a rank-C CP decomposition of x (either layout) by
// alternating least squares. A dense tensor runs each sweep as one
// dimension-tree sweep that shares partial MTTKRPs across modes: two
// tensor passes per sweep instead of N, the same result to rounding, and
// the same bits at every worker count. A named cfg.Method runs that
// MTTKRP per mode instead (MethodTwoStep is the paper's hybrid). Sparse
// tensors run the compressed-fiber kernel per mode. A cfg.Init is checked
// against x: its rank, its order and each factor's I_k × C shape must
// fit, or CP returns an error.
func CP(x AnyTensor, cfg CPConfig) (*CPResult, error) {
	return cpd.ALS(x, cfg)
}

// TTM computes the tensor-times-matrix product Y = X ×n M (Y_(n) = Mᵀ·X_(n))
// without reordering tensor entries, using t workers of the default pool.
func TTM(t int, x *Dense, n int, m Matrix) *Dense {
	return ttm.Multiply(nil, t, x, n, m)
}

// Corcondia computes the core consistency diagnostic of a fitted CP model
// (100 = perfect CP structure; collapses when over-factored).
func Corcondia(t int, x *Dense, k *KTensor) float64 {
	return cpd.Corcondia(t, x, k)
}

// NVecsInit builds a deterministic CP starting point from the leading
// eigenvectors of each mode's Gram matrix (Tensor Toolbox 'nvecs').
func NVecsInit(t int, x *Dense, rank int, seed int64) *KTensor {
	return cpd.NVecsInit(t, x, rank, seed)
}

// MappedTensor is a file-backed dense tensor: its data slab is a read-only
// mapping of a mappable tensor file (see OpenDenseFile), valid until Close.
// The MTTKRP kernels stream a mapped tensor through bounded row tiles, so
// tensors far larger than RAM compute with bit-identical results.
type MappedTensor = tensor.Map

// DenseFileInfo is the identity of a mappable tensor file (shape, mtime,
// size, header checksum) as read by StatDenseFile — what a by-reference
// client ships instead of the payload.
type DenseFileInfo = tensor.DenseFileInfo

// WriteDenseFile writes d to path in the DSNT file format (page-aligned
// data section; see DESIGN.md §14), the format (*Dense).Save writes; it
// round-trips through OpenDenseFile, LoadDenseTensor and LoadTensor.
func WriteDenseFile(path string, d *Dense) error { return tensor.WriteDenseFile(path, d) }

// CreateDenseFile writes an all-zero mappable tensor of the given dims as
// a sparse file: the data section is truncated into existence without
// writing its pages, so out-of-core experiments can create tensors far
// larger than RAM (or disk) instantly.
func CreateDenseFile(path string, dims []int) error { return tensor.CreateDenseFile(path, dims) }

// OpenDenseFile maps a mappable tensor file read-only and returns the
// file-backed tensor. Close it when done.
func OpenDenseFile(path string) (*MappedTensor, error) { return tensor.OpenDense(path) }

// AutoTileRows returns the MTTKRPOptions.TileRows value that keeps a
// mode-n MTTKRP's resident tensor working set within budgetBytes
// (DefaultTileBytes when ≤ 0), or 0 — untiled — when the whole tensor
// already fits. Pair it with OpenDenseFile to stream tensors larger
// than RAM with bit-identical results.
func AutoTileRows(dims []int, n int, budgetBytes int64) int {
	return core.AutoTileRows(dims, n, budgetBytes)
}

// DefaultTileBytes is the tile byte budget AutoTileRows assumes when the
// caller does not pick one.
const DefaultTileBytes = core.DefaultTileBytes

// StatDenseFile reads a mappable tensor file's shape and identity without
// touching its data section — the cheap way to build a TensorRef.
func StatDenseFile(path string) (*DenseFileInfo, error) { return tensor.StatDense(path) }

// TensorRef names a server-resident tensor file for a by-reference MTTKRP
// request (Client.MTTKRPByRef): a path relative to the server's TensorRoot
// plus the file identity the client observed, which the server revalidates
// before computing (409 on drift).
type TensorRef = transport.TensorRef

// TensorRefFor builds the TensorRef a client ships for the file info
// describes, naming it path relative to the server's tensor root.
func TensorRefFor(info *DenseFileInfo, path string) TensorRef {
	return transport.RefFor(info, path)
}

// LoadTensor reads a tensor of either layout, sniffing the file format:
// a DSNT file written by (*Dense).Save or WriteDenseFile, or text COO
// triples (one "coord... value" line per entry, 1-based coordinates — the
// FROSTT .tns convention) written by (*Sparse).Save. Malformed COO lines
// are reported with their line number.
func LoadTensor(path string) (AnyTensor, error) { return tensor.LoadAny(path) }

// LoadDenseTensor reads a DSNT file, written by (*Dense).Save or
// WriteDenseFile, into a heap tensor. A header promising more data than
// the file holds fails before anything is allocated.
func LoadDenseTensor(path string) (*Dense, error) { return tensor.Load(path) }

// LoadSparseTensor reads a sparse tensor from text COO triples (the
// format (*Sparse).Save writes). The shape is the file's "# dims" line,
// which Save writes first; a file without one takes each dimension as the
// per-mode coordinate maximum.
func LoadSparseTensor(path string) (*Sparse, error) { return tensor.LoadSparse(path) }

// NonnegativeCP computes a nonnegative CP decomposition by HALS (the
// nonnegative setting of the paper's related work), using the same MTTKRP
// kernels and sweep loop as CP: the dimension-tree sweep by default, a
// named cfg.Method per mode, and the same cfg.Init checks.
func NonnegativeCP(x *Dense, cfg CPConfig) (*CPResult, error) {
	return cpd.NNALS(x, cfg)
}

// TuckerModel is a Tucker decomposition (core tensor + orthonormal
// factors).
type TuckerModel = tucker.Model

// TuckerConfig configures Tucker/HOOI.
type TuckerConfig = tucker.Config

// TuckerResult reports a Tucker decomposition run.
type TuckerResult = tucker.Result

// Tucker computes a Tucker decomposition by HOSVD + HOOI on the same
// no-reorder TTM substrate the MTTKRP kernels use.
func Tucker(x *Dense, cfg TuckerConfig) (*TuckerResult, error) {
	return tucker.Decompose(x, cfg)
}

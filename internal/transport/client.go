package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// Client speaks the binary wire protocol to a transport listener. The zero
// value is unusable; construct with NewClient. One Client is safe for
// concurrent use — the underlying http.Client pools connections.
type Client struct {
	// BaseURL is the listener root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// APIKey, when non-empty, is sent as X-API-Key — the quota principal.
	APIKey string
	// Priority, when non-empty, is sent as X-Priority ("low", "normal" or
	// "high") on every compute request: the client's QoS class for the
	// server's aging admission queue.
	Priority string
	// CostHint, when positive, is sent as X-Cost-Hint on every compute
	// request, refining the server's cost-model estimate (for clients
	// that know their workload better than the shape-based model does).
	// The server clamps it to within a bounded factor of its own
	// estimate, so it cannot serve as a queue-jumping lever.
	CostHint float64
	// HTTPClient overrides the transport; nil uses http.DefaultClient
	// (which negotiates HTTP/2 automatically against TLS listeners).
	HTTPClient *http.Client
}

// NewClient returns a client for the listener at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// HTTPError is a non-2xx response surfaced to the caller; quota rejections
// arrive as StatusCode 429 and drains as 503, so load generators can
// classify without string matching.
type HTTPError struct {
	StatusCode int
	Message    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("transport: server returned %d: %s", e.StatusCode, strings.TrimSpace(e.Message))
}

// Timing reports one round trip's cost split: the server-measured wire
// decode and kernel time (from response headers), and the client-observed
// total including network and response decode.
type Timing struct {
	Decode  time.Duration // server: payload decode into pooled buffers
	Compute time.Duration // server: scheduler wait + kernel execution
	Total   time.Duration // client: full round trip
}

// MTTKRP ships x and its factors to the server and returns the I_n × C
// result. A non-zero dst receives the result without allocating (the
// steady-state path); factor k must be I_k × C.
func (c *Client) MTTKRP(dst mat.View, x *tensor.Dense, factors []mat.View, mode int, method core.Method) (mat.View, Timing, error) {
	if x.Order() == 0 || len(factors) != x.Order() {
		return mat.View{}, Timing{}, fmt.Errorf("transport: %d factors for an order-%d tensor", len(factors), x.Order())
	}
	h := &Header{Op: OpMTTKRP, Method: method, Mode: mode, Rank: factors[0].C, Dims: x.Dims()}
	return c.mttkrp("/v1/mttkrp", h, dst, func(w io.Writer) error { return WriteRequest(w, h, x, factors) })
}

// MTTKRPByRef ships only the factor matrices plus a reference to a dense
// tensor file the server can map from its own filesystem (wire version 3):
// the tensor payload — by far the largest share of a dense request — never
// crosses the wire, and the server's decode window shrinks to the factor
// copy plus one mmap. The reference carries the file's identity (mtime,
// size, header checksum from StatDense via RefFor), which the server
// verifies before computing; a mismatch is a 409, an unreadable or
// out-of-root path a 404. dims must match the file's header exactly.
func (c *Client) MTTKRPByRef(dst mat.View, ref TensorRef, dims []int, factors []mat.View, mode int, method core.Method) (mat.View, Timing, error) {
	if len(dims) == 0 || len(factors) != len(dims) {
		return mat.View{}, Timing{}, fmt.Errorf("transport: %d factors for an order-%d tensor", len(factors), len(dims))
	}
	h := &Header{Op: OpMTTKRPByRef, Method: method, Mode: mode, Rank: factors[0].C, Dims: dims, Ref: ref}
	return c.mttkrp("/v1/mttkrp-ref", h, dst, func(w io.Writer) error { return WriteRequest(w, h, nil, factors) })
}

// SparseMTTKRP ships a sparse tensor (COO coordinates and values at wire
// version 2) and its factors to the server and returns the I_n × C
// result. A non-zero dst receives the result without allocating; factor k
// must be I_k × C.
func (c *Client) SparseMTTKRP(dst mat.View, x *tensor.Sparse, factors []mat.View, mode int, method core.Method) (mat.View, Timing, error) {
	if x.Order() == 0 || len(factors) != x.Order() {
		return mat.View{}, Timing{}, fmt.Errorf("transport: %d factors for an order-%d tensor", len(factors), x.Order())
	}
	h := SparseHeader(x, method, mode, factors[0].C)
	return c.mttkrp("/v1/sparse-mttkrp", h, dst, func(w io.Writer) error { return WriteSparseRequest(w, h, x, factors) })
}

// mttkrp posts one MTTKRP request whose body write streams, and reads the
// Dims[Mode] × Rank result h asks for into dst. The client trusts only
// that shape, never the one the response declares: any other is refused
// before the result is allocated.
func (c *Client) mttkrp(path string, h *Header, dst mat.View, write func(io.Writer) error) (mat.View, Timing, error) {
	start := time.Now()
	resp, err := c.post(path, h, write)
	if err != nil {
		return mat.View{}, Timing{}, err
	}
	defer resp.Body.Close()
	tm := serverTiming(resp)
	m, err := ReadMatrixInto(resp.Body, dst, h.Dims[h.Mode], h.Rank)
	if err != nil {
		return mat.View{}, Timing{}, err
	}
	tm.Total = time.Since(start)
	return m, tm, nil
}

// CPResult is a served CP decomposition: the fitted Kruskal tensor plus
// the fit diagnostics the server computed.
type CPResult struct {
	K     *cpd.KTensor
	Fit   float64
	Iters int
}

// CP ships x and runs a rank-`rank` CP-ALS decomposition on the server
// (iters sweeps; 0 uses the server default) initialized from seed.
func (c *Client) CP(x *tensor.Dense, rank, iters int, seed int64) (*CPResult, Timing, error) {
	h := &Header{Op: OpCP, Rank: rank, Iters: iters, Seed: seed, Dims: x.Dims()}
	start := time.Now()
	resp, err := c.post("/v1/cp", h, func(w io.Writer) error { return WriteRequest(w, h, x, nil) })
	if err != nil {
		return nil, Timing{}, err
	}
	defer resp.Body.Close()
	tm := serverTiming(resp)
	k, err := ReadKTensor(resp.Body, h.Dims, h.Rank)
	if err != nil {
		return nil, Timing{}, err
	}
	res := &CPResult{K: k}
	res.Fit, _ = strconv.ParseFloat(resp.Header.Get("X-CP-Fit"), 64)
	res.Iters, _ = strconv.Atoi(resp.Header.Get("X-CP-Iters"))
	tm.Total = time.Since(start)
	return res, tm, nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (*Stats, error) {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("transport: stats decode: %w", err)
	}
	return &st, nil
}

// Healthy reports nil when the server is accepting work (a draining or
// unreachable server returns an error).
func (c *Client) Healthy() error {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// post streams one wire request for the validated header h — write
// encodes the whole body — through an io.Pipe, so a large tensor is never
// materialized as a second byte buffer client-side, and returns the
// successful response.
func (c *Client) post(path string, h *Header, write func(io.Writer) error) (*http.Response, error) {
	if err := h.Validate(0); err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(write(pw))
	}()
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+path, pr)
	if err != nil {
		pr.Close()
		return nil, err
	}
	req.ContentLength = h.WireSize()
	req.Header.Set("Content-Type", "application/x-tensor-wire")
	if c.Priority != "" {
		req.Header.Set("X-Priority", c.Priority)
	}
	if c.CostHint > 0 {
		req.Header.Set("X-Cost-Hint", strconv.FormatFloat(c.CostHint, 'g', -1, 64))
	}
	return c.do(req)
}

// do sends req with the client's identity and converts non-2xx responses
// into *HTTPError.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		resp.Body.Close()
		return nil, &HTTPError{StatusCode: resp.StatusCode, Message: string(msg)}
	}
	return resp, nil
}

// serverTiming extracts the decode/compute split headers.
func serverTiming(resp *http.Response) Timing {
	d, _ := strconv.ParseInt(resp.Header.Get(headerDecodeNs), 10, 64)
	cp, _ := strconv.ParseInt(resp.Header.Get(headerComputeNs), 10, 64)
	return Timing{Decode: time.Duration(d), Compute: time.Duration(cp)}
}

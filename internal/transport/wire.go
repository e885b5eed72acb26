// Package transport is the network front end of the serving runtime: an
// HTTP/1.1 listener (HTTP/2 when TLS is configured — net/http negotiates
// it automatically) that decodes a compact binary wire format directly
// into pooled request buffers, applies per-client
// token-bucket quotas (request rate and in-flight payload bytes), submits
// to the admission-controlled scheduler (internal/serve), and drains
// gracefully on shutdown so admitted tickets finish.
//
// The wire format keeps JSON off the data path. Every request has one
// little-endian header — magic, version, op, method, ndims, mode, rank,
// iters, seed, then the dimension list — and the op alone decides what
// follows: the nnz count of a sparse request, the tensor reference of a
// by-ref one, then the tensor body (the dense entries in natural
// linearization, the COO coordinates and values, or nothing) and, for
// every op except CP, the row-major factor matrices in mode order.
// Responses are equally lean: an I_n × C matrix is (rows, cols, data); a
// CP result is (nfactors, rank, lambda, factors...). See DESIGN.md §8 for
// the byte-level specification.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// Op selects the request kind carried by a wire header, and with it the
// body that follows the header.
type Op uint8

// Request kinds.
const (
	// OpMTTKRP ships a dense tensor and its factor matrices.
	OpMTTKRP Op = 1
	// OpCP ships a dense tensor; the server initializes the factors from
	// the header's seed.
	OpCP Op = 2
	// OpSparseMTTKRP ships a sparse tensor: an nnz count after the
	// dimension list, then COO coordinates and values instead of a dense
	// linearization, then the factors.
	OpSparseMTTKRP Op = 3
	// OpMTTKRPByRef ships only the factors: instead of the tensor's float
	// payload, the header carries a path (relative to the server's tensor
	// root) plus the file identity the client observed — mtime, size and
	// header checksum. The server maps the file, revalidates the identity
	// (409 on mismatch) and streams the kernel through row tiles of the
	// mapping.
	OpMTTKRPByRef Op = 4
)

// routes maps each op to its HTTP endpoint, for Server.Handler and Client
// alike. An op without a route is unknown.
var routes = [...]string{
	OpMTTKRP:       "/v1/mttkrp",
	OpCP:           "/v1/cp",
	OpSparseMTTKRP: "/v1/sparse-mttkrp",
	OpMTTKRPByRef:  "/v1/mttkrp-ref",
}

// route returns op's endpoint, or "" for an unknown op.
func (op Op) route() string {
	if int(op) < len(routes) {
		return routes[op]
	}
	return ""
}

// Wire-format constants. The magic doubles as an endianness check: a
// big-endian writer produces a mismatched magic and is rejected before
// any payload is read. There is one version for every op. Builds that
// wrote sparse requests at version 2 and by-ref requests at version 3
// reject those ops at version 1, and this reader rejects versions 2 and
// 3, so the two fail cleanly against each other.
const (
	wireMagic   uint32 = 0x4B54544D // "MTTK" little-endian
	wireVersion uint8  = 1

	// fixedHeaderLen is the byte length of the header before the
	// dimension list: magic(4) version(1) op(1) method(1) ndims(1)
	// mode(4) rank(4) iters(4) seed(8).
	fixedHeaderLen = 28
	// refFixedLen is the length of a by-ref request's reference block
	// before the path bytes: mtime(8) size(8) checksum(8) pathLen(2).
	refFixedLen = 26
)

// Resource ceilings enforced at decode time, before any payload bytes are
// read: a hostile header must not be able to size an allocation.
const (
	// MaxDims bounds the tensor order accepted on the wire.
	MaxDims = 8
	// MaxDim bounds each dimension.
	MaxDim = 1 << 20
	// MaxRank bounds the factor column count.
	MaxRank = 1 << 12
	// MaxIters bounds requested CP sweeps.
	MaxIters = 1 << 10
	// MaxRefPath bounds the path length of a by-reference request.
	MaxRefPath = 1 << 10
)

// DefaultIters is the CP sweep budget of a request that leaves Iters 0.
const DefaultIters = 10

// TensorRef identifies a server-resident tensor file for a by-reference
// request: a slash-separated path relative to the server's tensor root,
// plus the file identity (mtime in unix nanoseconds, byte size, and the
// FNV-1a checksum of the file's header section) the client observed. The
// server refuses to compute against a file whose identity no longer
// matches — the tensor changed under the client — with 409 Conflict.
type TensorRef struct {
	Path     string
	MTime    int64
	Size     int64
	Checksum uint64
}

// RefFor builds the reference a client ships for the tensor file whose
// identity info describes, naming it path relative to the server's tensor
// root (slash-separated). Pair it with tensor.StatDense, which reads the
// identity without touching the data section.
func RefFor(info *tensor.DenseFileInfo, path string) TensorRef {
	return TensorRef{
		Path:     path,
		MTime:    info.ModTime.UnixNano(),
		Size:     info.Size,
		Checksum: info.Checksum,
	}
}

// ErrPayloadTooLarge reports a structurally valid request whose payload
// exceeds the listener's configured ceiling; servers map it to HTTP 413.
var ErrPayloadTooLarge = errors.New("transport: request payload exceeds server limit")

// Header is the decoded request header. One header fully determines the
// payload length, so quota accounting and buffer sizing happen before the
// first payload byte is read.
type Header struct {
	// Op is the request kind; it selects the body after the header.
	Op Op
	// Method selects the MTTKRP algorithm (MTTKRP requests; CP uses it as
	// cpd.Config.Method: zero = the dimension-tree sweep, a named method
	// runs per mode).
	Method core.Method
	// Mode is the MTTKRP mode n (ignored for CP).
	Mode int
	// Rank is the factor column count C.
	Rank int
	// Iters is the CP sweep budget; 0 selects DefaultIters.
	Iters int
	// Seed drives the CP initial guess, making served runs reproducible.
	Seed int64
	// Dims is the tensor shape.
	Dims []int
	// NNZ is the stored-entry count of a sparse request (OpSparseMTTKRP
	// only; encoded as a uint64 after the dimension list). Other ops leave
	// it 0 and omit the field.
	NNZ int64
	// Ref names the server-resident tensor of a by-reference request
	// (OpMTTKRPByRef only; encoded after the dimension list). Other ops
	// leave it zero and omit the block.
	Ref TensorRef
}

// sparse reports whether the request carries a COO payload.
func (h *Header) sparse() bool { return h.Op == OpSparseMTTKRP }

// byRef reports whether the request's tensor stays server-side.
func (h *Header) byRef() bool { return h.Op == OpMTTKRPByRef }

// hasFactors reports whether the request ships factor matrices: every op
// except CP, whose server initializes them from Seed.
func (h *Header) hasFactors() bool { return h.Op != OpCP }

// sweeps returns the CP sweep budget: Iters, or DefaultIters when it is 0.
func (h *Header) sweeps() int {
	if h.Iters > 0 {
		return h.Iters
	}
	return DefaultIters
}

// headerLen returns the encoded header length: the fixed part, the dims,
// then the op's extension — the nnz field or the reference block.
func (h *Header) headerLen() int {
	n := fixedHeaderLen + 4*len(h.Dims)
	if h.sparse() {
		n += 8
	}
	if h.byRef() {
		n += refFixedLen + len(h.Ref.Path)
	}
	return n
}

// TensorElems returns the entry count of the request tensor.
func (h *Header) TensorElems() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

// PayloadFloats returns the float64 count following the header: the
// tensor's stored values (all Π dims entries dense, nnz sparse, none by
// reference) plus the factor matrices. Sparse coordinates are int32s and
// counted separately (IndexInts).
func (h *Header) PayloadFloats() int {
	n, _ := h.checkedPayloadFloats() // cannot fail on a validated header
	return int(n)
}

// IndexInts returns the int32 count of the sparse coordinate block
// preceding the float payload: nnz coordinates per mode, mode-major. 0
// for the other ops.
func (h *Header) IndexInts() int {
	if !h.sparse() {
		return 0
	}
	return int(h.NNZ) * len(h.Dims)
}

// PayloadBytes returns the byte length of the payload.
func (h *Header) PayloadBytes() int64 {
	return 4*int64(h.IndexInts()) + 8*int64(h.PayloadFloats())
}

// WireSize returns the total request length in bytes: header plus payload.
func (h *Header) WireSize() int64 {
	return int64(h.headerLen()) + h.PayloadBytes()
}

// maxWireFloats is the absolute payload ceiling (2^50 float64s, 8 PiB):
// the overflow-safe product check in checkedPayloadFloats rejects against
// it, so per-dim bounds alone never have to contain the product (8 dims
// of 2^20 multiply out to 2^160, which wraps int64).
const maxWireFloats = int64(1) << 50

// checkedPayloadFloats computes the payload length with per-step overflow
// guards; a product that would exceed maxWireFloats is rejected rather
// than wrapped.
func (h *Header) checkedPayloadFloats() (int64, error) {
	elems := int64(1)
	for _, d := range h.Dims {
		if d < 1 || elems > maxWireFloats/int64(d) {
			return 0, fmt.Errorf("%w: tensor %v overflows the %d-entry ceiling", ErrPayloadTooLarge, h.Dims, maxWireFloats)
		}
		elems *= int64(d)
	}
	var floats int64
	switch {
	case h.sparse():
		// A canonical COO payload is sorted and deduped, so its entry
		// count never exceeds the shape's capacity; a header claiming
		// more is hostile or corrupt. Bounding by elems ≤ maxWireFloats
		// also rules out nnz · order overflow in IndexInts (order ≤
		// MaxDims).
		if h.NNZ < 0 || h.NNZ > elems {
			return 0, fmt.Errorf("%w: nnz %d outside [0, %d] for shape %v", ErrPayloadTooLarge, h.NNZ, elems, h.Dims)
		}
		floats = h.NNZ
	case !h.byRef():
		// A by-ref payload carries no tensor floats; the dims bound above
		// still guards the mapped tensor's extent.
		floats = elems
	}
	if h.hasFactors() {
		// Each term is ≤ 2^20 · 2^12 under the per-field bounds; eight of
		// them cannot overflow alongside elems ≤ 2^50.
		for _, d := range h.Dims {
			floats += int64(d) * int64(h.Rank)
		}
		if floats > maxWireFloats {
			return 0, fmt.Errorf("%w: payload overflows the %d-entry ceiling", ErrPayloadTooLarge, maxWireFloats)
		}
	}
	return floats, nil
}

// Validate checks structural bounds. maxPayloadBytes caps the payload (0
// means no cap beyond the absolute maxWireFloats ceiling); exceeding it
// returns ErrPayloadTooLarge, every other violation a plain error. The
// size methods (TensorElems, PayloadFloats, PayloadBytes, WireSize) are
// only meaningful on a validated header — Validate is where overflow is
// ruled out.
func (h *Header) Validate(maxPayloadBytes int64) error {
	if h.Op.route() == "" {
		return fmt.Errorf("transport: unknown op %d", h.Op)
	}
	if h.byRef() {
		if h.Ref.Path == "" || len(h.Ref.Path) > MaxRefPath {
			return fmt.Errorf("transport: ref path length %d, want 1..%d", len(h.Ref.Path), MaxRefPath)
		}
		if strings.ContainsRune(h.Ref.Path, 0) {
			return fmt.Errorf("transport: ref path contains NUL")
		}
	}
	if h.Method < core.MethodAuto || h.Method > core.MethodReorder {
		return fmt.Errorf("transport: unknown method %d", h.Method)
	}
	if len(h.Dims) < 2 || len(h.Dims) > MaxDims {
		return fmt.Errorf("transport: %d dims, want 2..%d", len(h.Dims), MaxDims)
	}
	for i, d := range h.Dims {
		if d < 1 || d > MaxDim {
			return fmt.Errorf("transport: dim %d is %d, want 1..%d", i, d, MaxDim)
		}
	}
	if h.Rank < 1 || h.Rank > MaxRank {
		return fmt.Errorf("transport: rank %d, want 1..%d", h.Rank, MaxRank)
	}
	if h.hasFactors() && (h.Mode < 0 || h.Mode >= len(h.Dims)) {
		return fmt.Errorf("transport: mode %d out of range [0,%d)", h.Mode, len(h.Dims))
	}
	if h.Iters < 0 || h.Iters > MaxIters {
		return fmt.Errorf("transport: iters %d, want 0..%d", h.Iters, MaxIters)
	}
	if _, err := h.checkedPayloadFloats(); err != nil {
		return err
	}
	if bytes := h.PayloadBytes(); maxPayloadBytes > 0 && bytes > maxPayloadBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrPayloadTooLarge, bytes, maxPayloadBytes)
	}
	return nil
}

// WriteHeader encodes h (unvalidated — callers validate) to w.
func WriteHeader(w io.Writer, h *Header) error {
	buf := make([]byte, h.headerLen())
	binary.LittleEndian.PutUint32(buf[0:], wireMagic)
	buf[4] = wireVersion
	buf[5] = byte(h.Op)
	buf[6] = byte(h.Method)
	buf[7] = byte(len(h.Dims))
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.Mode))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.Rank))
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.Iters))
	binary.LittleEndian.PutUint64(buf[20:], uint64(h.Seed))
	for i, d := range h.Dims {
		binary.LittleEndian.PutUint32(buf[fixedHeaderLen+4*i:], uint32(d))
	}
	off := fixedHeaderLen + 4*len(h.Dims)
	if h.sparse() {
		binary.LittleEndian.PutUint64(buf[off:], uint64(h.NNZ))
	}
	if h.byRef() {
		binary.LittleEndian.PutUint64(buf[off:], uint64(h.Ref.MTime))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(h.Ref.Size))
		binary.LittleEndian.PutUint64(buf[off+16:], h.Ref.Checksum)
		binary.LittleEndian.PutUint16(buf[off+24:], uint16(len(h.Ref.Path)))
		copy(buf[off+refFixedLen:], h.Ref.Path)
	}
	_, err := w.Write(buf)
	return err
}

// ReadHeader decodes a request header from r, rejecting bad magic, any
// version but 1, unknown ops and bad dimension counts before reading the
// dimension list. Callers still run Validate before trusting the sizes.
func ReadHeader(r io.Reader) (*Header, error) {
	var fixed [fixedHeaderLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("transport: short header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(fixed[0:]); got != wireMagic {
		return nil, fmt.Errorf("transport: bad magic %#x (not a wire request, or big-endian writer)", got)
	}
	if fixed[4] != wireVersion {
		return nil, fmt.Errorf("transport: wire version %d, want %d", fixed[4], wireVersion)
	}
	if op := Op(fixed[5]); op.route() == "" {
		return nil, fmt.Errorf("transport: unknown op %d", op)
	}
	ndims := int(fixed[7])
	if ndims < 2 || ndims > MaxDims {
		return nil, fmt.Errorf("transport: %d dims, want 2..%d", ndims, MaxDims)
	}
	h := &Header{
		Op:     Op(fixed[5]),
		Method: core.Method(fixed[6]),
		Mode:   int(binary.LittleEndian.Uint32(fixed[8:])),
		Rank:   int(binary.LittleEndian.Uint32(fixed[12:])),
		Iters:  int(binary.LittleEndian.Uint32(fixed[16:])),
		Seed:   int64(binary.LittleEndian.Uint64(fixed[20:])),
		Dims:   make([]int, ndims),
	}
	dims := make([]byte, 4*ndims)
	if _, err := io.ReadFull(r, dims); err != nil {
		return nil, fmt.Errorf("transport: short dims: %w", err)
	}
	for i := range h.Dims {
		h.Dims[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
	}
	if h.sparse() {
		var nz [8]byte
		if _, err := io.ReadFull(r, nz[:]); err != nil {
			return nil, fmt.Errorf("transport: short nnz: %w", err)
		}
		h.NNZ = int64(binary.LittleEndian.Uint64(nz[:]))
		if h.NNZ < 0 {
			return nil, fmt.Errorf("transport: implausible nnz %d", h.NNZ)
		}
	}
	if h.byRef() {
		var rb [refFixedLen]byte
		if _, err := io.ReadFull(r, rb[:]); err != nil {
			return nil, fmt.Errorf("transport: short tensor ref: %w", err)
		}
		h.Ref.MTime = int64(binary.LittleEndian.Uint64(rb[0:]))
		h.Ref.Size = int64(binary.LittleEndian.Uint64(rb[8:]))
		h.Ref.Checksum = binary.LittleEndian.Uint64(rb[16:])
		plen := int(binary.LittleEndian.Uint16(rb[24:]))
		if plen == 0 || plen > MaxRefPath {
			return nil, fmt.Errorf("transport: ref path length %d, want 1..%d", plen, MaxRefPath)
		}
		path := make([]byte, plen)
		if _, err := io.ReadFull(r, path); err != nil {
			return nil, fmt.Errorf("transport: short ref path: %w", err)
		}
		h.Ref.Path = string(path)
	}
	return h, nil
}

// scratchBytes is the chunk size of the streaming codec: payloads stream
// through a buffer this large, so a 1 GB tensor materializes once (as
// float64s) rather than twice (raw bytes plus floats).
const scratchBytes = 32 << 10

// writeFloats streams data to w in little-endian chunks through scratch
// (≥ 8 bytes; nil allocates a default chunk).
func writeFloats(w io.Writer, data []float64, scratch []byte) error {
	if len(scratch) < 8 {
		scratch = make([]byte, scratchBytes)
	}
	for len(data) > 0 {
		n := min(len(data), len(scratch)/8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[8*i:], math.Float64bits(data[i]))
		}
		if _, err := w.Write(scratch[:8*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readFloats fills dst from r, decoding little-endian float64s in chunks
// through scratch. A short read returns io.ErrUnexpectedEOF.
func readFloats(r io.Reader, dst []float64, scratch []byte) error {
	if len(scratch) < 8 {
		scratch = make([]byte, scratchBytes)
	}
	for len(dst) > 0 {
		n := min(len(dst), len(scratch)/8)
		if _, err := io.ReadFull(r, scratch[:8*n]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("transport: short payload: %w", err)
		}
		for i := 0; i < n; i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[8*i:]))
		}
		dst = dst[n:]
	}
	return nil
}

// writeInts streams data to w as little-endian int32s in chunks through
// scratch (≥ 4 bytes; nil allocates a default chunk).
func writeInts(w io.Writer, data []int32, scratch []byte) error {
	if len(scratch) < 4 {
		scratch = make([]byte, scratchBytes)
	}
	for len(data) > 0 {
		n := min(len(data), len(scratch)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[4*i:], uint32(data[i]))
		}
		if _, err := w.Write(scratch[:4*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readInts fills dst from r, decoding little-endian int32s in chunks
// through scratch. A short read returns io.ErrUnexpectedEOF, so a
// truncated coordinate block is a decode error, never a silent
// short tensor.
func readInts(r io.Reader, dst []int32, scratch []byte) error {
	if len(scratch) < 4 {
		scratch = make([]byte, scratchBytes)
	}
	for len(dst) > 0 {
		n := min(len(dst), len(scratch)/4)
		if _, err := io.ReadFull(r, scratch[:4*n]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("transport: short index payload: %w", err)
		}
		for i := 0; i < n; i++ {
			dst[i] = int32(binary.LittleEndian.Uint32(scratch[4*i:]))
		}
		dst = dst[n:]
	}
	return nil
}

// writeView streams m row by row in row-major order: one slab when m is
// row-major, a row at a time otherwise.
func writeView(w io.Writer, m mat.View, scratch []byte) error {
	if m.IsRowMajor() {
		return writeFloats(w, m.Data[:m.R*m.C], scratch)
	}
	row := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		for j := range row {
			row[j] = m.At(i, j)
		}
		if err := writeFloats(w, row, scratch); err != nil {
			return err
		}
	}
	return nil
}

// WriteRequest streams one complete request to w: the header, the tensor
// body h.Op selects — the dense entries for OpMTTKRP and OpCP, the COO
// coordinate slabs (mode-major) and values for OpSparseMTTKRP, nothing
// for OpMTTKRPByRef, which takes a nil x — then, for every op except CP,
// the factor matrices. x must have the header's dims (and a sparse x its
// NNZ); factor k must be I_k × C, and strided views are serialized
// row-contiguously.
func WriteRequest(w io.Writer, h *Header, x tensor.Interface, factors []mat.View) error {
	if err := h.Validate(0); err != nil {
		return err
	}
	var ok bool
	switch x := x.(type) {
	case nil:
		ok = h.byRef()
	case *tensor.Dense:
		ok = !h.sparse() && !h.byRef() && slices.Equal(x.Dims(), h.Dims)
	case *tensor.Sparse:
		ok = h.sparse() && x.NNZ() == h.NNZ && slices.Equal(x.Dims(), h.Dims)
	}
	if !ok {
		return fmt.Errorf("transport: op %d with dims %v cannot carry a %T", h.Op, h.Dims, x)
	}
	if !h.hasFactors() {
		factors = nil // the server initializes CP's factors from Seed
	} else if len(factors) != len(h.Dims) {
		return fmt.Errorf("transport: %d factors for an order-%d tensor", len(factors), len(h.Dims))
	}
	for k, u := range factors {
		if u.R != h.Dims[k] || u.C != h.Rank {
			return fmt.Errorf("transport: factor %d is %dx%d, want %dx%d", k, u.R, u.C, h.Dims[k], h.Rank)
		}
	}
	if err := WriteHeader(w, h); err != nil {
		return err
	}
	scratch := make([]byte, scratchBytes)
	switch x := x.(type) {
	case *tensor.Dense:
		if err := writeFloats(w, x.Data(), scratch); err != nil {
			return err
		}
	case *tensor.Sparse:
		for k := 0; k < x.Order(); k++ {
			if err := writeInts(w, x.Index(k), scratch); err != nil {
				return err
			}
		}
		if err := writeFloats(w, x.Values(), scratch); err != nil {
			return err
		}
	}
	for _, u := range factors {
		if err := writeView(w, u, scratch); err != nil {
			return err
		}
	}
	return nil
}

// DecodeRequest reads the body a validated header promises into the
// caller's buffers — a sparse request's coordinates into ints (length ≥
// h.IndexInts()), the tensor values and factors into floats (length ≥
// h.PayloadFloats()) — and returns the tensor and factor views aliasing
// them. The caller owns both buffers and must keep them live until the
// computation completes: this is the zero-copy step that lets the server
// decode into pooled slabs. Sparse coordinates arrive mode-major, so each
// mode's column is one contiguous run of ints, the shape
// tensor.SparseFromCOO takes ownership of; it rejects out-of-range
// coordinates, so a hostile payload cannot index outside the factor
// matrices, and re-canonicalizes unsorted or duplicated input. A by-ref
// request carries no tensor: the returned one is nil, and the caller
// resolves h.Ref against its tensor root instead.
func DecodeRequest(r io.Reader, h *Header, ints []int32, floats []float64, scratch []byte) (tensor.Interface, []mat.View, error) {
	needI, needF := h.IndexInts(), h.PayloadFloats()
	if len(ints) < needI || len(floats) < needF {
		return nil, nil, fmt.Errorf("transport: decode buffers hold %d ints and %d floats, need %d and %d", len(ints), len(floats), needI, needF)
	}
	if err := readInts(r, ints[:needI], scratch); err != nil {
		return nil, nil, err
	}
	if err := readFloats(r, floats[:needF], scratch); err != nil {
		return nil, nil, err
	}
	var x tensor.Interface
	off := 0
	switch {
	case h.sparse():
		nnz := int(h.NNZ)
		idx := make([][]int32, len(h.Dims))
		for k := range idx {
			idx[k] = ints[k*nnz : (k+1)*nnz]
		}
		s, err := tensor.SparseFromCOO(h.Dims, idx, floats[:nnz])
		if err != nil {
			return nil, nil, fmt.Errorf("transport: bad sparse payload: %w", err)
		}
		x, off = s, nnz
	case !h.byRef():
		off = h.TensorElems()
		x = tensor.FromData(floats[:off], h.Dims...)
	}
	if !h.hasFactors() {
		return x, nil, nil
	}
	factors := make([]mat.View, len(h.Dims))
	for k, d := range h.Dims {
		factors[k] = mat.FromRowMajor(floats[off:off+d*h.Rank], d, h.Rank)
		off += d * h.Rank
	}
	return x, factors, nil
}

// MatrixWireSize returns the encoded length of an r×c matrix response.
func MatrixWireSize(r, c int) int64 { return 8 + 8*int64(r)*int64(c) }

// WriteMatrix encodes a matrix response: rows, cols (uint32 LE), then the
// row-major float64 data. scratch is the streaming-codec chunk buffer
// (nil allocates one; servers pass their pooled buffer).
func WriteMatrix(w io.Writer, m mat.View, scratch []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.R))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.C))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(scratch) < 8 {
		scratch = make([]byte, scratchBytes)
	}
	return writeView(w, m, scratch)
}

// ReadMatrixInto decodes a matrix response that must be rows × cols — the
// shape the caller asked for — into dst when it matches (the steady-state
// client path, no allocation); a zero dst allocates. A response declaring
// any other shape is refused before anything is allocated, so a
// misbehaving server cannot size the reader's memory.
func ReadMatrixInto(r io.Reader, dst mat.View, rows, cols int) (mat.View, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return mat.View{}, fmt.Errorf("transport: short matrix header: %w", err)
	}
	gotRows, gotCols := int(binary.LittleEndian.Uint32(hdr[0:])), int(binary.LittleEndian.Uint32(hdr[4:]))
	if gotRows != rows || gotCols != cols {
		return mat.View{}, fmt.Errorf("transport: %dx%d matrix response, want %dx%d", gotRows, gotCols, rows, cols)
	}
	if dst.Data == nil {
		dst = mat.NewDense(rows, cols)
	}
	if dst.R != rows || dst.C != cols || !dst.IsRowMajor() {
		return mat.View{}, fmt.Errorf("transport: dst is %dx%d (row-major=%v), want %dx%d",
			dst.R, dst.C, dst.IsRowMajor(), rows, cols)
	}
	if err := readFloats(r, dst.Data[:rows*cols], nil); err != nil {
		return mat.View{}, err
	}
	return dst, nil
}

// WriteKTensor encodes a CP result body: nfactors, rank (uint32 LE),
// lambda, then each factor as rows (uint32) + row-major data (cols =
// rank). scratch as in WriteMatrix.
func WriteKTensor(w io.Writer, k *cpd.KTensor, scratch []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k.Factors)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(k.Rank()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(scratch) < 8 {
		scratch = make([]byte, scratchBytes)
	}
	if err := writeFloats(w, k.Lambda, scratch); err != nil {
		return err
	}
	for _, u := range k.Factors {
		var rh [4]byte
		binary.LittleEndian.PutUint32(rh[:], uint32(u.R))
		if _, err := w.Write(rh[:]); err != nil {
			return err
		}
		if !u.IsRowMajor() {
			return errors.New("transport: non-row-major factor in CP result")
		}
		if err := writeFloats(w, u.Data[:u.R*u.C], scratch); err != nil {
			return err
		}
	}
	return nil
}

// ReadKTensor decodes a CP result body that must hold len(dims) factors
// of dims[k] × rank plus rank weights — the decomposition the caller asked
// for. Any other shape is refused before it is allocated.
func ReadKTensor(r io.Reader, dims []int, rank int) (*cpd.KTensor, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: short ktensor header: %w", err)
	}
	gotFactors, gotRank := int(binary.LittleEndian.Uint32(hdr[0:])), int(binary.LittleEndian.Uint32(hdr[4:]))
	if gotFactors != len(dims) || gotRank != rank {
		return nil, fmt.Errorf("transport: ktensor response with %d factors of rank %d, want %d of rank %d", gotFactors, gotRank, len(dims), rank)
	}
	k := &cpd.KTensor{Lambda: make([]float64, rank), Factors: make([]mat.View, len(dims))}
	if err := readFloats(r, k.Lambda, nil); err != nil {
		return nil, err
	}
	for i := range k.Factors {
		var rh [4]byte
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			return nil, fmt.Errorf("transport: short factor header: %w", err)
		}
		if rows := int(binary.LittleEndian.Uint32(rh[:])); rows != dims[i] {
			return nil, fmt.Errorf("transport: factor %d has %d rows, want %d", i, rows, dims[i])
		}
		k.Factors[i] = mat.NewDense(dims[i], rank)
		if err := readFloats(r, k.Factors[i].Data, nil); err != nil {
			return nil, err
		}
	}
	return k, nil
}

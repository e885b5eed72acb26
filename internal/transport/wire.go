// Package transport is the network front end of the serving runtime: an
// HTTP/1.1 listener (HTTP/2 when TLS is configured — net/http negotiates
// it automatically) that decodes a compact binary wire format for dense
// tensors directly into pooled request buffers, applies per-client
// token-bucket quotas (request rate and in-flight payload bytes), submits
// to the admission-controlled scheduler (internal/serve), and drains
// gracefully on shutdown so admitted tickets finish.
//
// The wire format keeps JSON off the data path: a little-endian fixed
// header (magic, version, op, method, ndims, mode, rank, iters, seed),
// the dimension list, then the raw float64 payload — the tensor in
// natural linearization followed, for MTTKRP, by the row-major factor
// matrices in mode order. Responses are equally lean: an I_n × C matrix
// is (rows, cols, data); a CP result is (nfactors, rank, lambda,
// factors...). See DESIGN.md §8 for the byte-level specification.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// Op selects the request kind carried by a wire header.
type Op uint8

// Request kinds.
const (
	OpMTTKRP Op = 1
	OpCP     Op = 2
	// OpSparseMTTKRP is the wire-v2 sparse request: the payload carries
	// COO coordinates and values instead of a dense linearization. A v1
	// reader rejects it by version before touching the payload.
	OpSparseMTTKRP Op = 3
	// OpMTTKRPByRef is the wire-v3 by-reference request: instead of the
	// tensor's float payload, the header carries a path (relative to the
	// server's tensor root) plus the file identity the client observed —
	// mtime, size and header checksum — and only the factor matrices ride
	// the wire. The server maps the file, revalidates the identity (409 on
	// mismatch) and streams the kernel through row tiles of the mapping.
	OpMTTKRPByRef Op = 4
)

// Wire-format constants. The magic doubles as an endianness check: a
// big-endian writer produces a mismatched magic and is rejected before
// any payload is read.
const (
	wireMagic   uint32 = 0x4B54544D // "MTTK" little-endian
	wireVersion uint8  = 1
	// wireVersionSparse is the version sparse requests are written at.
	// Version 2 extends v1 by one rule: sparse ops append an 8-byte nnz
	// count after the dimension list (dense ops are byte-identical to
	// v1, and readers accept both versions).
	wireVersionSparse uint8 = 2
	// wireVersionByRef is the version by-reference requests are written
	// at. Version 3 extends v2 by one rule: by-ref ops append a tensor
	// reference block after the dimension list — mtime (int64), size
	// (int64), header checksum (uint64), then the path as a uint16 length
	// plus bytes. All other ops are byte-identical to their v1/v2 forms.
	wireVersionByRef uint8 = 3

	// fixedHeaderLen is the byte length of the header before the
	// dimension list: magic(4) version(1) op(1) method(1) ndims(1)
	// mode(4) rank(4) iters(4) seed(8).
	fixedHeaderLen = 28
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
	// Op is the request kind (OpMTTKRP or OpCP).
	Op Op
	// Method selects the MTTKRP algorithm (MTTKRP requests; CP uses it as
	// the per-mode kernel choice with zero = the paper's hybrid).
	Method core.Method
	// Mode is the MTTKRP mode n (ignored for CP).
	Mode int
	// Rank is the factor column count C.
	Rank int
	// Iters is the CP sweep budget; 0 selects the server default.
	Iters int
	// Seed drives the CP initial guess, making served runs reproducible.
	Seed int64
	// Dims is the tensor shape.
	Dims []int
	// NNZ is the stored-entry count of a sparse request (OpSparseMTTKRP
	// only; encoded as a uint64 after the dimension list at wire version
	// 2). Dense ops leave it 0 and omit the field.
	NNZ int64
	// Ref names the server-resident tensor of a by-reference request
	// (OpMTTKRPByRef only; encoded after the dimension list at wire
	// version 3). Other ops leave it zero and omit the block.
	Ref TensorRef
}

// sparse reports whether the request carries a COO payload.
func (h *Header) sparse() bool { return h.Op == OpSparseMTTKRP }

// byRef reports whether the request's tensor stays server-side.
func (h *Header) byRef() bool { return h.Op == OpMTTKRPByRef }

// refWireLen is the encoded length of the reference block: mtime(8) +
// size(8) + checksum(8) + pathLen(2) + path bytes.
func (h *Header) refWireLen() int { return 26 + len(h.Ref.Path) }

// TensorElems returns the entry count of the request tensor.
func (h *Header) TensorElems() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

// FactorElems returns the total entries of the factor matrices shipped
// after the tensor (MTTKRP requests, dense or sparse, carry one I_k × C
// factor per mode; CP requests carry none — the server initializes from
// Seed).
func (h *Header) FactorElems() int {
	if h.Op != OpMTTKRP && h.Op != OpSparseMTTKRP && h.Op != OpMTTKRPByRef {
		return 0
	}
	n := 0
	for _, d := range h.Dims {
		n += d * h.Rank
	}
	return n
}

// PayloadFloats returns the float64 count following the header: the
// tensor's stored values (all Π dims entries dense, nnz sparse) plus the
// factor matrices. Sparse coordinates are int32s and counted separately
// (IndexInts).
func (h *Header) PayloadFloats() int {
	if h.sparse() {
		return int(h.NNZ) + h.FactorElems()
	}
	if h.byRef() {
		// The tensor stays server-side; only the factors cross the wire.
		return h.FactorElems()
	}
	return h.TensorElems() + h.FactorElems()
}

// IndexInts returns the int32 count of the sparse coordinate block
// preceding the float payload: nnz coordinates per mode, mode-major. 0
// for dense ops.
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
	n := int64(fixedHeaderLen + 4*len(h.Dims))
	if h.sparse() {
		n += 8 // the nnz field
	}
	if h.byRef() {
		n += int64(h.refWireLen())
	}
	return n + h.PayloadBytes()
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
	floats := elems
	if h.byRef() {
		// The dims bound above still guards the mapped tensor's extent;
		// the wire payload itself carries no tensor floats.
		floats = 0
	}
	if h.sparse() {
		// A canonical COO payload is sorted and deduped, so its entry
		// count never exceeds the shape's capacity; a header claiming
		// more is hostile or corrupt. Bounding by elems ≤ maxWireFloats
		// also rules out nnz · order overflow below (order ≤ MaxDims).
		if h.NNZ < 0 || h.NNZ > elems {
			return 0, fmt.Errorf("%w: nnz %d outside [0, %d] for shape %v", ErrPayloadTooLarge, h.NNZ, elems, h.Dims)
		}
		floats = h.NNZ
	}
	if h.Op == OpMTTKRP || h.Op == OpSparseMTTKRP || h.Op == OpMTTKRPByRef {
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
	if h.Op != OpMTTKRP && h.Op != OpCP && h.Op != OpSparseMTTKRP && h.Op != OpMTTKRPByRef {
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
	if (h.Op == OpMTTKRP || h.Op == OpSparseMTTKRP || h.Op == OpMTTKRPByRef) && (h.Mode < 0 || h.Mode >= len(h.Dims)) {
		return fmt.Errorf("transport: mode %d out of range [0,%d)", h.Mode, len(h.Dims))
	}
	if h.Iters < 0 || h.Iters > MaxIters {
		return fmt.Errorf("transport: iters %d, want 0..%d", h.Iters, MaxIters)
	}
	floats, err := h.checkedPayloadFloats()
	if err != nil {
		return err
	}
	bytes := 8 * floats
	if h.sparse() {
		// The coordinate block: nnz int32s per mode. nnz ≤ 2^50 and
		// order ≤ 8, so the product stays well inside int64.
		bytes += 4 * h.NNZ * int64(len(h.Dims))
	}
	if maxPayloadBytes > 0 && bytes > maxPayloadBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrPayloadTooLarge, bytes, maxPayloadBytes)
	}
	return nil
}

// WriteHeader encodes h (unvalidated — callers validate) to w. Dense ops
// write version 1 — byte-identical to the original format, so old readers
// keep working — and sparse ops write version 2 with the nnz field after
// the dimension list.
func WriteHeader(w io.Writer, h *Header) error {
	n := fixedHeaderLen + 4*len(h.Dims)
	ver := wireVersion
	if h.sparse() {
		ver = wireVersionSparse
		n += 8
	}
	if h.byRef() {
		ver = wireVersionByRef
		n += h.refWireLen()
	}
	buf := make([]byte, n)
	binary.LittleEndian.PutUint32(buf[0:], wireMagic)
	buf[4] = ver
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
	if h.sparse() {
		binary.LittleEndian.PutUint64(buf[fixedHeaderLen+4*len(h.Dims):], uint64(h.NNZ))
	}
	if h.byRef() {
		off := fixedHeaderLen + 4*len(h.Dims)
		binary.LittleEndian.PutUint64(buf[off:], uint64(h.Ref.MTime))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(h.Ref.Size))
		binary.LittleEndian.PutUint64(buf[off+16:], h.Ref.Checksum)
		binary.LittleEndian.PutUint16(buf[off+24:], uint16(len(h.Ref.Path)))
		copy(buf[off+26:], h.Ref.Path)
	}
	_, err := w.Write(buf)
	return err
}

// ReadHeader decodes a request header from r, rejecting bad magic,
// versions and dimension counts before reading the dimension list. Callers
// still run Validate before trusting the sizes.
func ReadHeader(r io.Reader) (*Header, error) {
	var fixed [fixedHeaderLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("transport: short header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(fixed[0:]); got != wireMagic {
		return nil, fmt.Errorf("transport: bad magic %#x (not a wire request, or big-endian writer)", got)
	}
	if fixed[4] != wireVersion && fixed[4] != wireVersionSparse && fixed[4] != wireVersionByRef {
		return nil, fmt.Errorf("transport: wire version %d, want %d..%d", fixed[4], wireVersion, wireVersionByRef)
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
	if h.sparse() && fixed[4] < wireVersionSparse {
		return nil, fmt.Errorf("transport: sparse op requires wire version %d, got %d", wireVersionSparse, fixed[4])
	}
	if h.byRef() && fixed[4] < wireVersionByRef {
		return nil, fmt.Errorf("transport: by-ref op requires wire version %d, got %d", wireVersionByRef, fixed[4])
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
		var rb [26]byte
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

// scratchBytes is the chunk size of the streaming float codec: payloads
// stream through a buffer this large, so a 1 GB tensor materializes once
// (as float64s) rather than twice (raw bytes plus floats).
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

// WriteRequest streams one complete request — header, tensor (omitted for
// by-reference ops, which may pass a nil x), and (for MTTKRP) the factor
// matrices — to w. Factor k must be I_k × C; strided views are serialized
// row-contiguously.
func WriteRequest(w io.Writer, h *Header, x *tensor.Dense, factors []mat.View) error {
	if err := h.Validate(0); err != nil {
		return err
	}
	if err := WriteHeader(w, h); err != nil {
		return err
	}
	scratch := make([]byte, scratchBytes)
	if !h.byRef() {
		if err := writeFloats(w, x.Data(), scratch); err != nil {
			return err
		}
	}
	if h.Op != OpMTTKRP && h.Op != OpMTTKRPByRef {
		return nil
	}
	for k, u := range factors {
		if u.R != h.Dims[k] || u.C != h.Rank {
			return fmt.Errorf("transport: factor %d is %dx%d, want %dx%d", k, u.R, u.C, h.Dims[k], h.Rank)
		}
		if u.IsRowMajor() {
			if err := writeFloats(w, u.Data[:u.R*u.C], scratch); err != nil {
				return err
			}
			continue
		}
		row := make([]float64, u.C)
		for i := 0; i < u.R; i++ {
			for j := 0; j < u.C; j++ {
				row[j] = u.At(i, j)
			}
			if err := writeFloats(w, row, scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeRequest reads the payload a validated header promises into buf
// (length ≥ h.PayloadFloats()) and returns the tensor and factor views
// aliasing it. The caller owns buf and must keep it live until the
// computation completes — this is the zero-copy step that lets the server
// decode into a pooled buffer. By-reference requests carry no tensor
// floats; the returned tensor is nil and the caller resolves h.Ref
// against its tensor root instead.
func DecodeRequest(r io.Reader, h *Header, buf []float64, scratch []byte) (*tensor.Dense, []mat.View, error) {
	need := h.PayloadFloats()
	if len(buf) < need {
		return nil, nil, fmt.Errorf("transport: decode buffer holds %d floats, need %d", len(buf), need)
	}
	if err := readFloats(r, buf[:need], scratch); err != nil {
		return nil, nil, err
	}
	var x *tensor.Dense
	off := 0
	if !h.byRef() {
		x = tensor.FromData(buf[:h.TensorElems()], h.Dims...)
		off = h.TensorElems()
	}
	if h.Op != OpMTTKRP && h.Op != OpMTTKRPByRef {
		return x, nil, nil
	}
	factors := make([]mat.View, len(h.Dims))
	for k, d := range h.Dims {
		factors[k] = mat.FromRowMajor(buf[off:off+d*h.Rank], d, h.Rank)
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
	if m.IsRowMajor() {
		return writeFloats(w, m.Data[:m.R*m.C], scratch)
	}
	row := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			row[j] = m.At(i, j)
		}
		if err := writeFloats(w, row, scratch); err != nil {
			return err
		}
	}
	return nil
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

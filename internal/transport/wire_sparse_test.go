package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// sparseProblem builds a deterministic sparse MTTKRP instance.
func sparseProblem(seed int64, density float64, rank int, dims ...int) (*tensor.Sparse, []mat.View) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.RandomSparse(rng, density, dims...)
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), rank, rng)
	}
	return x, u
}

// sparseHeader builds the wire header of a sparse MTTKRP request for x.
func sparseHeader(x *tensor.Sparse, mode, rank int) *Header {
	return &Header{Op: OpSparseMTTKRP, Mode: mode, Rank: rank, Dims: x.Dims(), NNZ: x.NNZ()}
}

// TestSparseWireRoundTrip pins that an encode/decode cycle reproduces the
// tensor and factors bit-exactly, and that the decoded tensor hits the
// sorted fast path (no re-canonicalization of a canonical payload).
func TestSparseWireRoundTrip(t *testing.T) {
	x, u := sparseProblem(1, 0.05, 4, 12, 10, 8)
	h := sparseHeader(x, 1, 4)
	if h.WireSize() != int64(fixedHeaderLen+4*3+8)+h.PayloadBytes() {
		t.Fatalf("wire size %d inconsistent with header layout", h.WireSize())
	}

	var buf bytes.Buffer
	if err := WriteRequest(&buf, h, x, u); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != h.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", buf.Len(), h.WireSize())
	}

	h2, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Op != OpSparseMTTKRP || h2.NNZ != x.NNZ() || h2.Mode != 1 || h2.Rank != 4 {
		t.Fatalf("decoded header %+v", h2)
	}
	if err := h2.Validate(0); err != nil {
		t.Fatal(err)
	}
	ints := make([]int32, h2.IndexInts())
	floats := make([]float64, h2.PayloadFloats())
	gx, u2, err := DecodeRequest(&buf, h2, ints, floats, nil)
	if err != nil {
		t.Fatal(err)
	}
	x2 := gx.(*tensor.Sparse)
	if x2.NNZ() != x.NNZ() {
		t.Fatalf("decoded nnz %d, want %d", x2.NNZ(), x.NNZ())
	}
	for p := 0; p < int(x.NNZ()); p++ {
		for k := 0; k < 3; k++ {
			if x2.Index(k)[p] != x.Index(k)[p] {
				t.Fatalf("entry %d mode %d coordinate differs", p, k)
			}
		}
		if x2.Values()[p] != x.Values()[p] {
			t.Fatalf("entry %d value differs", p)
		}
	}
	for k := range u {
		if !mat.ApproxEqual(u2[k], u[k], 0) {
			t.Fatalf("factor %d differs after round trip", k)
		}
	}
	// Zero-copy contract: the decoded coordinates alias the caller's
	// buffers (the sorted fast path must not have re-materialized them).
	if &x2.Index(0)[0] != &ints[0] {
		t.Fatal("decoded indices do not alias the provided buffer")
	}
	if &x2.Values()[0] != &floats[0] {
		t.Fatal("decoded values do not alias the provided buffer")
	}
}

// TestSparseWireTruncation pins that a payload cut at any stage (indices,
// values, factors) decodes to an error, never a short tensor.
func TestSparseWireTruncation(t *testing.T) {
	x, u := sparseProblem(2, 0.1, 3, 8, 7, 6)
	h := sparseHeader(x, 0, 3)
	var full bytes.Buffer
	if err := WriteRequest(&full, h, x, u); err != nil {
		t.Fatal(err)
	}
	wire := full.Bytes()
	headerLen := fixedHeaderLen + 4*3 + 8
	for _, cut := range []int{
		headerLen + 1,                    // mid-indices
		headerLen + 4*int(x.NNZ())*3 + 5, // mid-values
		len(wire) - 3,                    // mid-factors
	} {
		r := bytes.NewReader(wire[:cut])
		h2, err := ReadHeader(r)
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		ints := make([]int32, h2.IndexInts())
		floats := make([]float64, h2.PayloadFloats())
		if _, _, err := DecodeRequest(r, h2, ints, floats, nil); err == nil {
			t.Fatalf("cut %d: truncated payload decoded without error", cut)
		}
	}
}

// TestSparseWireRejection pins the hostile-header and hostile-payload
// paths: nnz overflow, the one wire version, out-of-range coordinates.
func TestSparseWireRejection(t *testing.T) {
	x, u := sparseProblem(3, 0.1, 2, 6, 5)

	t.Run("nnz exceeds shape capacity", func(t *testing.T) {
		h := sparseHeader(x, 0, 2)
		h.NNZ = int64(6*5) + 1
		err := h.Validate(0)
		if !errors.Is(err, ErrPayloadTooLarge) {
			t.Fatalf("got %v, want ErrPayloadTooLarge", err)
		}
	})

	t.Run("nnz bytes exceed payload cap", func(t *testing.T) {
		h := sparseHeader(x, 0, 2)
		if err := h.Validate(64); !errors.Is(err, ErrPayloadTooLarge) {
			t.Fatalf("got %v, want ErrPayloadTooLarge", err)
		}
	})

	t.Run("sparse op at wire version 1", func(t *testing.T) {
		h := sparseHeader(x, 0, 2)
		var buf bytes.Buffer
		if err := WriteHeader(&buf, h); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		if wire[4] != wireVersion {
			t.Fatalf("sparse header written at version %d, want %d", wire[4], wireVersion)
		}
		got, err := ReadHeader(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("sparse header at version %d rejected: %v", wireVersion, err)
		}
		if got.Op != OpSparseMTTKRP || got.NNZ != x.NNZ() {
			t.Fatalf("read back op %d nnz %d, want op %d nnz %d", got.Op, got.NNZ, OpSparseMTTKRP, x.NNZ())
		}
		wire[4] = 2 // the version sparse requests carried before the single header
		if _, err := ReadHeader(bytes.NewReader(wire)); err == nil || !strings.Contains(err.Error(), "wire version") {
			t.Fatalf("sparse header at version 2 accepted: %v", err)
		}
	})

	t.Run("out-of-range coordinate", func(t *testing.T) {
		h := sparseHeader(x, 0, 2)
		var buf bytes.Buffer
		if err := WriteRequest(&buf, h, x, u); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		// Corrupt the first mode-0 coordinate to dim 0's size.
		headerLen := fixedHeaderLen + 4*2 + 8
		wire[headerLen] = 6
		r := bytes.NewReader(wire)
		h2, err := ReadHeader(r)
		if err != nil {
			t.Fatal(err)
		}
		ints := make([]int32, h2.IndexInts())
		floats := make([]float64, h2.PayloadFloats())
		if _, _, err := DecodeRequest(r, h2, ints, floats, nil); err == nil {
			t.Fatal("out-of-range coordinate decoded without error")
		}
	})
}

// TestHTTPSparseMTTKRPRoundTrip pins the served sparse path end to end:
// the result matches the local kernel, and the scheduler's stats show the
// request was admitted and priced.
func TestHTTPSparseMTTKRPRoundTrip(t *testing.T) {
	s, c := startServer(t, Config{Serve: serve.Config{Workers: 2}})
	x, u := sparseProblem(4, 0.05, 5, 14, 12, 10)
	for mode := 0; mode < x.Order(); mode++ {
		got, tm, err := c.SparseMTTKRP(mat.View{}, x, u, mode, core.MethodAuto)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		want := core.SparseCompute(x, u, mode, core.Options{})
		if !mat.ApproxEqual(got, want, 1e-12) {
			t.Fatalf("mode %d: served sparse result diverges from local kernel", mode)
		}
		if tm.Compute <= 0 {
			t.Fatalf("mode %d: missing compute timing (%v)", mode, tm)
		}
	}
	// Steady state: a retained dst receives the result without allocating.
	dst := mat.NewDense(x.Dim(1), 5)
	if _, _, err := c.SparseMTTKRP(dst, x, u, 1, core.MethodAuto); err != nil {
		t.Fatal(err)
	}
	want := core.SparseCompute(x, u, 1, core.Options{})
	if !mat.ApproxEqual(dst, want, 1e-12) {
		t.Fatal("dst-reuse sparse round trip diverges")
	}
	st := s.Stats()
	if st.BytesIn == 0 || st.Serve.Completed < 4 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
}

// TestHTTPSparseRejection pins the HTTP mapping of sparse wire errors: an
// oversized nnz is 413, a dense request on the sparse endpoint is 400.
func TestHTTPSparseRejection(t *testing.T) {
	_, c := startServer(t, Config{
		Serve:           serve.Config{Workers: 1},
		MaxPayloadBytes: 1 << 10,
	})
	x, u := sparseProblem(5, 0.5, 4, 20, 20, 20)
	_, _, err := c.SparseMTTKRP(mat.View{}, x, u, 0, core.MethodAuto)
	if !errors.Is(err, ErrPayloadTooLarge) {
		// The client validates with no cap; the server's cap surfaces as 413.
		var he *HTTPError
		if !errors.As(err, &he) || he.StatusCode != 413 {
			t.Fatalf("oversized sparse request: %v, want 413", err)
		}
	}

	dense, du := problem(6, 3, 6, 5, 4)
	h := &Header{Op: OpMTTKRP, Mode: 0, Rank: 3, Dims: dense.Dims()}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, h, dense, du); err != nil {
		t.Fatal(err)
	}
	resp, err := c.HTTPClient.Post(c.BaseURL+"/v1/sparse-mttkrp", "application/x-tensor-wire", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("dense op on sparse endpoint: %d, want 400", resp.StatusCode)
	}
}

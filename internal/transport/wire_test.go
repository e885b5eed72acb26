package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// randomHeader draws a structurally valid random request shape.
func randomHeader(rng *rand.Rand, op Op) *Header {
	ndims := 2 + rng.Intn(3)
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 2 + rng.Intn(7)
	}
	return &Header{
		Op:     op,
		Method: core.Method(rng.Intn(4)),
		Mode:   rng.Intn(ndims),
		Rank:   1 + rng.Intn(6),
		Iters:  rng.Intn(8),
		Seed:   rng.Int63() - rng.Int63(),
		Dims:   dims,
	}
}

// TestWireRoundTripProperty is the property test of the wire codec:
// random requests of every op — dense tensors, COO tensors at random
// densities, random references — survive encode → decode with every
// header field intact and a bit-identical payload.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := randomHeader(rng, OpMTTKRP+Op(trial%4))
		var x tensor.Interface
		switch h.Op {
		case OpMTTKRP, OpCP:
			x = tensor.Random(rng, h.Dims...)
		case OpSparseMTTKRP:
			s := tensor.RandomSparse(rng, rng.Float64(), h.Dims...)
			x, h.NNZ = s, s.NNZ()
		case OpMTTKRPByRef:
			h.Ref = TensorRef{
				Path:  fmt.Sprintf("d%d/x%d.dsnt", rng.Intn(100), rng.Intn(100)),
				MTime: rng.Int63(), Size: rng.Int63(), Checksum: rng.Uint64(),
			}
		}
		sent := &decoded{h: h, x: x}
		if h.hasFactors() {
			for _, d := range h.Dims {
				sent.factors = append(sent.factors, mat.RandomDense(d, h.Rank, rng))
			}
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, h, x, sent.factors); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		if int64(buf.Len()) != h.WireSize() {
			t.Fatalf("trial %d: encoded %d bytes, WireSize says %d", trial, buf.Len(), h.WireSize())
		}
		got, err := ReadHeader(&buf)
		if err != nil {
			t.Fatalf("trial %d: read header: %v", trial, err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("trial %d: header %+v != %+v", trial, got, h)
		}
		if err := got.Validate(0); err != nil {
			t.Fatalf("trial %d: validate: %v", trial, err)
		}
		gx, gu, err := DecodeRequest(&buf, got, make([]int32, got.IndexInts()), make([]float64, got.PayloadFloats()), nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		recv := &decoded{h: got, x: gx, factors: gu}
		recv.checkShapes(t)
		if !slices.Equal(recv.bits(), sent.bits()) {
			t.Fatalf("trial %d: op %d payload corrupted", trial, h.Op)
		}
		if buf.Len() != 0 {
			t.Fatalf("trial %d: %d trailing bytes after decode", trial, buf.Len())
		}
	}
}

// TestWireTruncatedPayload pins that every proper prefix of a valid
// request fails with an error — never a panic, never a silent success.
func TestWireTruncatedPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := &Header{Op: OpMTTKRP, Mode: 1, Rank: 3, Dims: []int{4, 3, 2}}
	x := tensor.Random(rng, h.Dims...)
	var factors []mat.View
	for k := 0; k < x.Order(); k++ {
		factors = append(factors, mat.RandomDense(x.Dim(k), h.Rank, rng))
	}
	var full bytes.Buffer
	if err := WriteRequest(&full, h, x, factors); err != nil {
		t.Fatal(err)
	}
	wire := full.Bytes()
	for cut := 0; cut < len(wire); cut += 7 {
		r := bytes.NewReader(wire[:cut])
		gh, err := ReadHeader(r)
		if err != nil {
			continue // truncated inside the header: rejected there
		}
		slab := make([]float64, gh.PayloadFloats())
		if _, _, err := DecodeRequest(r, gh, nil, slab, nil); err == nil {
			t.Fatalf("truncation at byte %d of %d decoded successfully", cut, len(wire))
		}
	}
}

// TestWireHeaderRejection pins the pre-payload defenses: bad magic, any
// version but 1 for every op, unknown ops, oversized orders/dims/ranks,
// and payloads above the server cap are all refused before any payload
// allocation.
func TestWireHeaderRejection(t *testing.T) {
	valid := &Header{Op: OpMTTKRP, Mode: 0, Rank: 2, Dims: []int{3, 3}}
	encode := func(h *Header) []byte {
		var b bytes.Buffer
		if err := WriteHeader(&b, h); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	wire := encode(valid)
	wire[0] ^= 0xFF // corrupt magic
	if _, err := ReadHeader(bytes.NewReader(wire)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// One version for every op: the 2 and 3 that sparse and by-ref
	// requests were once written at are refused like any other.
	for op := OpMTTKRP; op <= OpMTTKRPByRef; op++ {
		h := &Header{Op: op, Rank: 2, Dims: []int{3, 3}, NNZ: 1, Ref: TensorRef{Path: "x"}}
		for _, v := range []byte{0, 2, 3, 9} {
			wire = encode(h)
			wire[4] = v
			if _, err := ReadHeader(bytes.NewReader(wire)); err == nil || !strings.Contains(err.Error(), "wire version") {
				t.Errorf("op %d at wire version %d: %v, want a version error", op, v, err)
			}
		}
	}
	// An unknown op is refused from the fixed header alone, before the
	// dimension list is read.
	wire = encode(valid)
	wire[5] = 9
	if _, err := ReadHeader(bytes.NewReader(wire[:fixedHeaderLen])); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown op: %v, want an unknown-op error", err)
	}
	wire = encode(valid)
	wire[7] = 200 // oversized ndims — would imply an 800-byte dims read
	if _, err := ReadHeader(bytes.NewReader(wire)); err == nil {
		t.Fatal("oversized ndims accepted")
	}
	wire[7] = 1 // an order-1 tensor has no MTTKRP
	if _, err := ReadHeader(bytes.NewReader(wire)); err == nil {
		t.Fatal("ndims 1 accepted")
	}

	cases := []struct {
		name string
		h    *Header
	}{
		{"order 1", &Header{Op: OpMTTKRP, Rank: 2, Dims: []int{3}}},
		{"zero dim", &Header{Op: OpMTTKRP, Rank: 2, Dims: []int{0, 3}}},
		{"huge dim", &Header{Op: OpMTTKRP, Rank: 2, Dims: []int{MaxDim + 1, 3}}},
		{"zero rank", &Header{Op: OpMTTKRP, Dims: []int{3, 3}}},
		{"huge rank", &Header{Op: OpMTTKRP, Rank: MaxRank + 1, Dims: []int{3, 3}}},
		{"bad mode", &Header{Op: OpMTTKRP, Mode: 2, Rank: 2, Dims: []int{3, 3}}},
		{"bad op", &Header{Op: 9, Rank: 2, Dims: []int{3, 3}}},
		{"bad method", &Header{Op: OpMTTKRP, Method: 9, Rank: 2, Dims: []int{3, 3}}},
		{"huge iters", &Header{Op: OpCP, Rank: 2, Iters: MaxIters + 1, Dims: []int{3, 3}}},
	}
	for _, tc := range cases {
		if err := tc.h.Validate(0); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Structurally valid but above the configured payload ceiling: the
	// typed error servers map to 413.
	big := &Header{Op: OpMTTKRP, Rank: 1, Dims: []int{1024, 1024}}
	if err := big.Validate(1 << 10); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized payload: %v, want ErrPayloadTooLarge", err)
	}

	// Per-dim-legal header whose entry product overflows int64 (2^64):
	// must be rejected by the overflow-safe product, not wrapped to a tiny
	// payload that bypasses the ceiling and the byte quota.
	overflow := &Header{Op: OpCP, Rank: 2, Dims: []int{1 << 20, 1 << 20, 1 << 20, 16}}
	if err := overflow.Validate(1 << 30); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("overflowing entry product: %v, want ErrPayloadTooLarge", err)
	}
	// Same shape through MTTKRP's factor-sum arm.
	overflow.Op = OpMTTKRP
	if err := overflow.Validate(1 << 30); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("overflowing MTTKRP product: %v, want ErrPayloadTooLarge", err)
	}
}

// TestWireMatrixHeaderOverflow pins that a response header whose rows ×
// cols product wraps int math is refused before allocation.
func TestWireMatrixHeaderOverflow(t *testing.T) {
	var b bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], 1<<31)
	binary.LittleEndian.PutUint32(hdr[4:], 1<<31)
	b.Write(hdr[:])
	if _, err := ReadMatrixInto(&b, mat.View{}, 4, 2); err == nil {
		t.Fatal("wrapping rows×cols accepted")
	}
}

// TestWireMatrixRoundTrip covers the response codecs, including the
// zero-alloc ReadMatrixInto steady-state path and strided sources.
func TestWireMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := mat.RandomDense(5, 4, rng)
	var b bytes.Buffer
	if err := WriteMatrix(&b, m, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixInto(&b, mat.View{}, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(m, got) != 0 {
		t.Fatal("matrix corrupted in round trip")
	}

	// Transposed (strided) source serializes row-contiguously.
	b.Reset()
	if err := WriteMatrix(&b, m.T(), nil); err != nil {
		t.Fatal(err)
	}
	dst := mat.NewDense(4, 5)
	if _, err := ReadMatrixInto(&b, dst, 4, 5); err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(m.T(), dst) != 0 {
		t.Fatal("strided matrix corrupted in round trip")
	}

	// Mismatched dst is refused, not silently reshaped.
	b.Reset()
	if err := WriteMatrix(&b, m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMatrixInto(&b, mat.NewDense(3, 3), 5, 4); err == nil {
		t.Fatal("mismatched dst accepted")
	}
}

func TestWireKTensorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := cpd.RandomKTensor(rng, []int{6, 5, 4}, 3)
	var b bytes.Buffer
	if err := WriteKTensor(&b, k, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKTensor(&b, []int{6, 5, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank() != k.Rank() || got.Order() != k.Order() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rank(), got.Order(), k.Rank(), k.Order())
	}
	for i := range k.Lambda {
		if got.Lambda[i] != k.Lambda[i] {
			t.Fatal("lambda corrupted")
		}
	}
	for n := range k.Factors {
		if mat.MaxAbsDiff(got.Factors[n], k.Factors[n]) != 0 {
			t.Fatalf("factor %d corrupted", n)
		}
	}
}

func BenchmarkWireDecodeMTTKRP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := &Header{Op: OpMTTKRP, Mode: 1, Rank: 16, Dims: []int{48, 40, 36}}
	x := tensor.Random(rng, h.Dims...)
	var factors []mat.View
	for k := 0; k < x.Order(); k++ {
		factors = append(factors, mat.RandomDense(x.Dim(k), h.Rank, rng))
	}
	var wire bytes.Buffer
	if err := WriteRequest(&wire, h, x, factors); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	slab := make([]float64, h.PayloadFloats())
	scratch := make([]byte, scratchBytes)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bytes.NewReader(raw)
		gh, err := ReadHeader(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodeRequest(r, gh, nil, slab, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

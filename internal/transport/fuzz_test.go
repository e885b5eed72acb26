package transport

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// decoded is one request as the server's decode sequence leaves it.
type decoded struct {
	h       *Header
	x       tensor.Interface // nil for by-ref requests
	factors []mat.View
}

// decodeWire runs the server's decode sequence over data: ReadHeader,
// Validate under a 1 MiB payload cap, then DecodeRequest into buffers
// sized from the header.
func decodeWire(data []byte) (*decoded, error) {
	r := bytes.NewReader(data)
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	if err := h.Validate(1 << 20); err != nil {
		return nil, err
	}
	x, factors, err := DecodeRequest(r, h, make([]int32, h.IndexInts()), make([]float64, h.PayloadFloats()))
	if err != nil {
		return nil, err
	}
	return &decoded{h: h, x: x, factors: factors}, nil
}

// encode writes d back to the wire. A sparse payload is re-encoded as the
// canonical tensor the decoder built, so its header carries that tensor's
// entry count (duplicate coordinates merge on decode).
func (d *decoded) encode(w io.Writer) (*Header, error) {
	h := *d.h
	if h.sparse() {
		h.NNZ = d.x.NNZ()
	}
	return &h, WriteRequest(w, &h, d.x, d.factors)
}

// checkShapes fails t unless the decoded tensor and factors have the
// layout and shapes the header promises.
func (d *decoded) checkShapes(t *testing.T) {
	t.Helper()
	h := d.h
	var ok bool
	switch x := d.x.(type) {
	case nil:
		ok = h.byRef()
	case *tensor.Dense:
		ok = !h.sparse() && !h.byRef() && slices.Equal(x.Dims(), h.Dims) && len(x.Data()) == h.TensorElems()
	case *tensor.Sparse:
		ok = h.sparse() && slices.Equal(x.Dims(), h.Dims) && x.NNZ() <= h.NNZ
	}
	if !ok {
		t.Fatalf("decoded %T does not match header %+v", d.x, h)
	}
	if !h.hasFactors() {
		if d.factors != nil {
			t.Fatal("CP request decoded factors")
		}
		return
	}
	if len(d.factors) != len(h.Dims) {
		t.Fatalf("%d factors for %d dims", len(d.factors), len(h.Dims))
	}
	for k, u := range d.factors {
		if u.R != h.Dims[k] || u.C != h.Rank || !u.IsRowMajor() {
			t.Fatalf("factor %d is %dx%d, header wants %dx%d", k, u.R, u.C, h.Dims[k], h.Rank)
		}
	}
}

// bits lists d's payload as bit patterns: the sparse coordinates, the
// tensor values, then the factors. Two decodes with equal headers carry
// the same payload exactly when their bits are equal.
func (d *decoded) bits() []uint64 {
	var out []uint64
	add := func(vals []float64) {
		for _, v := range vals {
			out = append(out, math.Float64bits(v))
		}
	}
	switch x := d.x.(type) {
	case *tensor.Sparse:
		for k := 0; k < x.Order(); k++ {
			for _, i := range x.Index(k) {
				out = append(out, uint64(i))
			}
		}
		add(x.Values())
	case *tensor.Dense:
		add(x.Data())
	}
	for _, u := range d.factors {
		add(u.Data[:u.R*u.C])
	}
	return out
}

// FuzzDecodeRequest feeds arbitrary bytes through the server's decode
// sequence. Decoding must never panic; an accepted request must yield a
// tensor and factors shaped as its header says; and re-encoding it must
// decode to the same header and a bit-identical payload. For every op but
// sparse, whose decoder canonicalizes the COO entries, the re-encoding
// must also reproduce the request's bytes: there is one wire version, so
// a request written at any other is rejected rather than rewritten.
func FuzzDecodeRequest(f *testing.F) {
	x, u := problem(1, 3, 4, 3, 2)
	sx, su := sparseProblem(2, 0.3, 3, 4, 3, 2)
	ref := TensorRef{Path: "sub/x.dsnt", MTime: 1, Size: 2, Checksum: 3}
	seeds := []struct {
		h *Header
		x tensor.Interface
		u []mat.View
	}{
		{&Header{Op: OpMTTKRP, Method: core.MethodTwoStep, Mode: 1, Rank: 3, Dims: x.Dims()}, x, u},
		{&Header{Op: OpCP, Rank: 3, Iters: 5, Seed: -7, Dims: x.Dims()}, x, nil},
		{sparseHeader(sx, 2, 3), sx, su},
		{&Header{Op: OpMTTKRPByRef, Rank: 3, Dims: x.Dims(), Ref: ref}, nil, u},
	}
	for _, s := range seeds {
		var b bytes.Buffer
		if err := WriteRequest(&b, s.h, s.x, s.u); err != nil {
			f.Fatal(err)
		}
		wire := b.Bytes()
		f.Add(wire)
		for _, n := range []int{fixedHeaderLen, len(wire) / 2, len(wire) - 1} {
			f.Add(wire[:n])
		}
		for _, v := range []byte{2, 3} {
			retired := bytes.Clone(wire)
			retired[4] = v
			f.Add(retired)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeWire(data)
		if err != nil {
			return
		}
		d.checkShapes(t)
		var b bytes.Buffer
		want, err := d.encode(&b)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		if !d.h.sparse() && !bytes.Equal(b.Bytes(), data[:d.h.WireSize()]) {
			t.Fatalf("re-encoding op %d changed the request's bytes", d.h.Op)
		}
		e, err := decodeWire(b.Bytes())
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if !reflect.DeepEqual(e.h, want) {
			t.Fatalf("header %+v after a round trip, want %+v", e.h, want)
		}
		e.checkShapes(t)
		if !slices.Equal(d.bits(), e.bits()) {
			t.Fatal("payload changed in a round trip")
		}
	})
}

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

// decoded is one request as the server's decode sequence leaves it:
// exactly one of dense (nil for by-ref requests) and sparse is set.
type decoded struct {
	h       *Header
	dense   *tensor.Dense
	sparse  *tensor.Sparse
	factors []mat.View
}

// decodeWire runs the server's decode sequence over data: ReadHeader,
// Validate under a 1 MiB payload cap, then the dense or sparse payload
// decoder into buffers sized from the header.
func decodeWire(data []byte) (*decoded, error) {
	r := bytes.NewReader(data)
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	if err := h.Validate(1 << 20); err != nil {
		return nil, err
	}
	d := &decoded{h: h}
	floats := make([]float64, h.PayloadFloats())
	scratch := make([]byte, scratchBytes)
	if h.sparse() {
		d.sparse, d.factors, err = DecodeSparseRequest(r, h, make([]int32, h.IndexInts()), floats, scratch)
	} else {
		d.dense, d.factors, err = DecodeRequest(r, h, floats, scratch)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// encode writes d back to the wire. A sparse payload is re-encoded as the
// canonical tensor the decoder built, so its header carries that tensor's
// entry count (duplicate coordinates merge on decode).
func (d *decoded) encode(w io.Writer) (*Header, error) {
	h := *d.h
	if d.sparse != nil {
		h.NNZ = d.sparse.NNZ()
		return &h, WriteSparseRequest(w, &h, d.sparse, d.factors)
	}
	return &h, WriteRequest(w, &h, d.dense, d.factors)
}

// checkShapes fails t unless the decoded tensor and factors have the
// shapes the header promises.
func (d *decoded) checkShapes(t *testing.T) {
	t.Helper()
	h := d.h
	switch {
	case h.sparse():
		if d.sparse == nil || !slices.Equal(d.sparse.Dims(), h.Dims) || d.sparse.NNZ() > h.NNZ {
			t.Fatalf("sparse tensor does not match header %+v", h)
		}
	case h.byRef():
		if d.dense != nil {
			t.Fatal("by-ref request decoded a wire tensor")
		}
	default:
		if d.dense == nil || !slices.Equal(d.dense.Dims(), h.Dims) || len(d.dense.Data()) != h.TensorElems() {
			t.Fatalf("dense tensor does not match header %+v", h)
		}
	}
	if h.Op == OpCP {
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
	switch {
	case d.sparse != nil:
		for k := 0; k < d.sparse.Order(); k++ {
			for _, i := range d.sparse.Index(k) {
				out = append(out, uint64(i))
			}
		}
		add(d.sparse.Values())
	case d.dense != nil:
		add(d.dense.Data())
	}
	for _, u := range d.factors {
		add(u.Data[:u.R*u.C])
	}
	return out
}

// FuzzDecodeRequest feeds arbitrary bytes through the server's decode
// sequence. Decoding must never panic; an accepted request must yield a
// tensor and factors shaped as its header says; and re-encoding it must
// decode to the same header and a bit-identical payload. Values are
// compared rather than bytes: dense ops decode at any wire version, but
// the writer always emits version 1.
func FuzzDecodeRequest(f *testing.F) {
	x, u := problem(1, 3, 4, 3, 2)
	sx, su := sparseProblem(2, 0.3, 3, 4, 3, 2)
	ref := TensorRef{Path: "sub/x.dsnt", MTime: 1, Size: 2, Checksum: 3}
	seeds := []func(io.Writer) error{
		func(w io.Writer) error {
			return WriteRequest(w, &Header{Op: OpMTTKRP, Method: core.MethodTwoStep, Mode: 1, Rank: 3, Dims: x.Dims()}, x, u)
		},
		func(w io.Writer) error {
			return WriteRequest(w, &Header{Op: OpCP, Rank: 3, Iters: 5, Seed: -7, Dims: x.Dims()}, x, nil)
		},
		func(w io.Writer) error {
			return WriteSparseRequest(w, SparseHeader(sx, core.MethodAuto, 2, 3), sx, su)
		},
		func(w io.Writer) error {
			return WriteRequest(w, &Header{Op: OpMTTKRPByRef, Rank: 3, Dims: x.Dims(), Ref: ref}, nil, u)
		},
	}
	for _, write := range seeds {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			f.Fatal(err)
		}
		wire := b.Bytes()
		f.Add(wire)
		for _, n := range []int{fixedHeaderLen, len(wire) / 2, len(wire) - 1} {
			f.Add(wire[:n])
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

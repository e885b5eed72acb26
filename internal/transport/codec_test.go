package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// specials are the values whose bits a codec could plausibly disturb:
// NaNs with payloads (quiet, signaling, negative), signed zeros,
// infinities, subnormals and the extremes.
var specials = []float64{
	math.Float64frombits(0x7FF8000000000000),
	math.Float64frombits(0x7FF0000000000001),
	math.Float64frombits(0x7FF7FFFFFFFFFFFF),
	math.Float64frombits(0xFFF8DEADBEEF0001),
	0,
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF),
	math.MaxFloat64,
	-math.MaxFloat64,
}

// withSpecials overwrites every third entry of vals with a special value.
func withSpecials(vals []float64) []float64 {
	for i := 0; i < len(vals); i += 3 {
		vals[i] = specials[(i/3)%len(specials)]
	}
	return vals
}

// codecCase is one request of the codec equivalence table.
type codecCase struct {
	name    string
	h       *Header
	x       tensor.Interface
	factors []mat.View // as the client holds them: row-major or strided
}

// codecCases builds every op with row-major and with strided factor
// views. The dense tensor and the sparse coordinate block exceed one
// chunk, so the chunked codec runs its loop more than once.
func codecCases() []codecCase {
	rng := rand.New(rand.NewSource(29))
	dims := []int{24, 20, 18}
	const rank = 5
	dense := tensor.Random(rng, dims...)
	withSpecials(dense.Data())
	s := tensor.RandomSparse(rng, 0.5, 30, 30, 20)
	idx := make([][]int32, s.Order())
	for k := range idx {
		idx[k] = slices.Clone(s.Index(k))
	}
	sparse, err := tensor.SparseFromCOO(s.Dims(), idx, withSpecials(slices.Clone(s.Values())))
	if err != nil {
		panic(err)
	}
	factorsFor := func(dims []int, strided bool) []mat.View {
		u := make([]mat.View, len(dims))
		for k, d := range dims {
			switch {
			case !strided:
				u[k] = mat.NewDense(d, rank)
			case k%2 == 0: // rows spaced wider than they are long
				u[k] = mat.NewDense(d, rank+3).Slice(0, d, 1, rank+1)
			default: // column-major
				u[k] = mat.NewDense(rank, d).T()
			}
			for i := 0; i < d; i++ {
				for j := 0; j < rank; j++ {
					u[k].Set(i, j, rng.NormFloat64())
				}
			}
			u[k].Set(0, 0, specials[k%len(specials)])
			u[k].Set(d-1, rank-1, math.Float64frombits(0x7FF4000000000000|uint64(k)))
		}
		return u
	}
	ref := TensorRef{Path: "a/b.dsnt", MTime: 7, Size: 8, Checksum: 9}
	var cases []codecCase
	for _, strided := range []bool{false, true} {
		layout := "row-major"
		if strided {
			layout = "strided"
		}
		cases = append(cases,
			codecCase{"mttkrp/" + layout, &Header{Op: OpMTTKRP, Method: core.MethodOneStep, Mode: 1, Rank: rank, Dims: dims}, dense, factorsFor(dims, strided)},
			codecCase{"sparse/" + layout, &Header{Op: OpSparseMTTKRP, Mode: 2, Rank: rank, Dims: sparse.Dims(), NNZ: sparse.NNZ()}, sparse, factorsFor(sparse.Dims(), strided)},
			codecCase{"byref/" + layout, &Header{Op: OpMTTKRPByRef, Rank: rank, Dims: dims, Ref: ref}, nil, factorsFor(dims, strided)},
		)
	}
	return append(cases, codecCase{"cp", &Header{Op: OpCP, Rank: rank, Iters: 3, Seed: 5, Dims: dims}, dense, nil})
}

// skipUnlessDirect skips tests of the direct codec on hosts whose byte
// order is not the wire's, where only the chunked codec is right.
func skipUnlessDirect(t *testing.T) {
	t.Helper()
	if hostCodec != direct {
		t.Skip("host byte order is not the wire's: the direct codec does not apply")
	}
}

// TestCodecEquivalence pins the direct codec to the chunked one: every op,
// with row-major and strided factors, encodes to the same bytes both
// ways, and those bytes decode both ways to slabs whose bits equal the
// request's, NaN payloads, signed zeros, infinities and subnormals
// included.
func TestCodecEquivalence(t *testing.T) {
	skipUnlessDirect(t)
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			var viaDirect, viaChunked bytes.Buffer
			if err := direct.writeRequest(&viaDirect, tc.h, tc.x, tc.factors); err != nil {
				t.Fatal(err)
			}
			if err := chunked.writeRequest(&viaChunked, tc.h, tc.x, tc.factors); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaDirect.Bytes(), viaChunked.Bytes()) {
				t.Fatal("direct and chunked encodings differ")
			}
			if int64(viaDirect.Len()) != tc.h.WireSize() {
				t.Fatalf("encoded %d bytes, WireSize says %d", viaDirect.Len(), tc.h.WireSize())
			}
			sent := &decoded{h: tc.h, x: tc.x}
			for _, u := range tc.factors {
				sent.factors = append(sent.factors, u.Clone()) // row-major, as bits() reads them
			}
			want := sent.bits()
			for _, c := range []codec{direct, chunked} {
				r := bytes.NewReader(viaDirect.Bytes())
				h, err := ReadHeader(r)
				if err != nil {
					t.Fatal(err)
				}
				x, u, err := c.decodeRequest(r, h, make([]int32, h.IndexInts()), make([]float64, h.PayloadFloats()))
				if err != nil {
					t.Fatalf("codec %d: %v", c, err)
				}
				got := &decoded{h: h, x: x, factors: u}
				got.checkShapes(t)
				if !slices.Equal(got.bits(), want) {
					t.Fatalf("codec %d decoded different bits", c)
				}
				if r.Len() != 0 {
					t.Fatalf("codec %d left %d bytes unread", c, r.Len())
				}
			}
		})
	}
}

// TestCodecTruncation pins that a request cut inside an int32 coordinate
// or inside a float fails with io.ErrUnexpectedEOF on both codecs.
func TestCodecTruncation(t *testing.T) {
	skipUnlessDirect(t)
	x, u := sparseProblem(3, 0.2, 3, 9, 8, 7)
	h := sparseHeader(x, 1, 3)
	var full bytes.Buffer
	if err := WriteRequest(&full, h, x, u); err != nil {
		t.Fatal(err)
	}
	wire := full.Bytes()
	headerLen := h.headerLen()
	coords := 4 * h.IndexInts()
	cuts := map[string]int{
		"inside the first coordinate": headerLen + 2,
		"inside a later coordinate":   headerLen + coords - 3,
		"at the end of the coords":    headerLen + coords,
		"inside the first value":      headerLen + coords + 5,
		"inside the last factor":      len(wire) - 1,
	}
	for name, cut := range cuts {
		for _, c := range []codec{direct, chunked} {
			r := bytes.NewReader(wire[:cut])
			gh, err := ReadHeader(r)
			if err != nil {
				t.Fatalf("%s: header: %v", name, err)
			}
			_, _, err = c.decodeRequest(r, gh, make([]int32, gh.IndexInts()), make([]float64, gh.PayloadFloats()))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, codec %d: %v, want io.ErrUnexpectedEOF", name, c, err)
			}
		}
	}
}

// TestCodecAllocFree pins the steady-state reads at zero allocations:
// DecodeRequest into caller slabs allocates only the views requestViews
// builds over them (the payload read itself allocates nothing), and
// ReadMatrixInto into a retained dst allocates nothing at all.
func TestCodecAllocFree(t *testing.T) {
	skipUnlessDirect(t)
	rd := bytes.NewReader(nil)
	for _, tc := range codecCases() {
		var b bytes.Buffer
		if err := WriteRequest(&b, tc.h, tc.x, tc.factors); err != nil {
			t.Fatal(err)
		}
		body := b.Bytes()[tc.h.headerLen():]
		ints, floats := make([]int32, tc.h.IndexInts()), make([]float64, tc.h.PayloadFloats())
		decode := testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			if _, _, err := DecodeRequest(rd, tc.h, ints, floats); err != nil {
				panic(err)
			}
		})
		views := testing.AllocsPerRun(20, func() {
			if _, _, err := requestViews(tc.h, ints, floats); err != nil {
				panic(err)
			}
		})
		if decode != views {
			t.Errorf("%s: DecodeRequest makes %v allocs, its views %v: the payload read allocates", tc.name, decode, views)
		}
	}

	m := mat.RandomDense(300, 25, rand.New(rand.NewSource(1)))
	var b bytes.Buffer
	if err := WriteMatrix(&b, m); err != nil {
		t.Fatal(err)
	}
	dst := mat.NewDense(300, 25)
	if a := testing.AllocsPerRun(20, func() {
		rd.Reset(b.Bytes())
		if _, err := ReadMatrixInto(rd, dst, 300, 25); err != nil {
			panic(err)
		}
	}); a != 0 {
		t.Errorf("ReadMatrixInto into a retained dst: %v allocs, want 0", a)
	}
	if mat.MaxAbsDiff(m, dst) != 0 {
		t.Fatal("matrix corrupted by the retained-dst read")
	}
}

package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzLoadDense reads arbitrary bytes as a DSNT file. StatDense and Load
// must never panic and must agree on whether the file is valid; an
// accepted file must report the same dims through both and survive a
// Save and Load round trip bit for bit.
func FuzzLoadDense(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []*Dense{Random(rng, 3, 2), Random(rng, 2, 1, 3, 2)} {
		path := filepath.Join(f.TempDir(), "seed.dsnt")
		if err := d.Save(path); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-8])
		f.Add(b[:24+8*(d.Order()+1)])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "x.dsnt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, statErr := StatDense(path)
		x, loadErr := Load(path)
		if (statErr == nil) != (loadErr == nil) {
			t.Fatalf("StatDense error %v but Load error %v", statErr, loadErr)
		}
		if loadErr != nil {
			return
		}
		if !sameDims(info.Dims, x.dims) {
			t.Fatalf("StatDense dims %v, Load dims %v", info.Dims, x.dims)
		}
		again := filepath.Join(dir, "again.dsnt")
		if err := x.Save(again); err != nil {
			t.Fatal(err)
		}
		y, err := Load(again)
		if err != nil {
			t.Fatalf("reloading a saved tensor: %v", err)
		}
		if !sameBits(x, y) {
			t.Fatal("Save and Load changed the tensor")
		}
	})
}

// FuzzReadSparseFrom parses arbitrary text as COO. Parsing must never
// panic, and an accepted tensor must survive WriteSparseTo and a second
// parse with its dims, entry count, coordinates and value bits intact.
func FuzzReadSparseFrom(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []*Sparse{
		RandomSparse(rng, 0.3, 4, 3, 2),
		NewSparse([]int{6, 5, 4}, [][]int32{{0, 2}, {1, 1}, {0, 3}}, []float64{1.5, -2}),
		NewSparse([]int{3, 2}, [][]int32{nil, nil}, nil),
	} {
		var b bytes.Buffer
		if _, err := s.WriteSparseTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.String())
	}
	f.Add("# a FROSTT file\n1 1 1 2.0\n2 1 1 -0.5\n1 1 1 1e-3\n")
	f.Add("# dims 2 2\n1 3 1.0\n")
	f.Add("1 1 1e308\n1 1 1e308\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ReadSparseFrom(strings.NewReader(text))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if _, err := s.WriteSparseTo(&b); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSparseFrom(&b)
		if err != nil {
			t.Fatalf("re-reading a written tensor: %v", err)
		}
		if !sameDims(back.dims, s.dims) || back.NNZ() != s.NNZ() {
			t.Fatalf("%v with %d entries re-read as %v with %d", s.dims, s.NNZ(), back.dims, back.NNZ())
		}
		for n := range s.idx {
			if !slices.Equal(back.idx[n], s.idx[n]) {
				t.Fatalf("mode %d coordinates changed", n)
			}
		}
		for p, v := range s.vals {
			if math.Float64bits(back.vals[p]) != math.Float64bits(v) {
				t.Fatalf("entry %d value %v re-read as %v", p, v, back.vals[p])
			}
		}
	})
}

// cooBytes encodes one SparseFromCOO input for FuzzSparseFromCOO: a byte
// holding the order, a byte naming the mode whose index slice loses its
// last entry (0 for none, m+1 for mode m), the dims as int32s, then per
// entry its coordinates as int32s and its value as a float64, all
// little-endian.
func cooBytes(dims []int32, drop byte, coords [][]int32, vals []float64) []byte {
	b := []byte{byte(len(dims)), drop}
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	for p, v := range vals {
		for _, i := range coords[p] {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// decodeCOO is cooBytes' inverse over arbitrary bytes: the order is taken
// mod 6 and a trailing partial entry is ignored.
func decodeCOO(data []byte) (dims []int, idx [][]int32, vals []float64) {
	if len(data) < 2 {
		return nil, nil, nil
	}
	order, drop := int(data[0]%6), int(data[1])
	data = data[2:]
	if len(data) < 4*order {
		return nil, nil, nil
	}
	dims = make([]int, order)
	for n := range dims {
		dims[n] = int(int32(binary.LittleEndian.Uint32(data[4*n:])))
	}
	data = data[4*order:]
	nnz := len(data) / (4*order + 8)
	idx = make([][]int32, order)
	for n := range idx {
		idx[n] = make([]int32, nnz)
	}
	vals = make([]float64, nnz)
	for p := range vals {
		e := data[p*(4*order+8):]
		for n := range idx {
			idx[n][p] = int32(binary.LittleEndian.Uint32(e[4*n:]))
		}
		vals[p] = math.Float64frombits(binary.LittleEndian.Uint64(e[4*order:]))
	}
	if drop > 0 && order > 0 && nnz > 0 {
		m := (drop - 1) % order
		idx[m] = idx[m][:nnz-1]
	}
	return dims, idx, vals
}

// FuzzSparseFromCOO builds sparse tensors from arbitrary dims, coordinates
// and values. SparseFromCOO must never panic, and must accept exactly the
// inputs with at least one mode, dims in 1..MaxInt32, one full-length
// index slice per mode and every coordinate in range. An accepted tensor
// is in range, strictly sorted and holds one entry per distinct input
// coordinate; on its input, the one-pass sortedness check agrees with the
// pairwise one whenever the linear keys fit.
func FuzzSparseFromCOO(f *testing.F) {
	f.Add(cooBytes([]int32{4, 3, 2}, 0, [][]int32{{0, 1, 1}, {1, 0, 0}, {3, 2, 1}}, []float64{1, 2, 3}))
	f.Add(cooBytes([]int32{4, 3, 2}, 0, [][]int32{{3, 2, 1}, {0, 1, 1}, {3, 2, 1}, {0, 0, 0}}, []float64{1, 2, 3, -0.5}))
	f.Add(cooBytes([]int32{5, 5}, 2, [][]int32{{0, 1}, {2, 3}}, []float64{1, 2}))
	f.Add(cooBytes([]int32{5, 5}, 0, [][]int32{{0, 5}}, []float64{1}))
	f.Add(cooBytes([]int32{5, -1}, 0, [][]int32{{0, -1}}, []float64{math.NaN()}))
	f.Add(cooBytes([]int32{math.MaxInt32, math.MaxInt32, math.MaxInt32}, 0,
		[][]int32{{2, 0, 0}, {1, 0, 0}, {1, 0, 0}}, []float64{1, 2, math.Inf(1)}))
	f.Add(cooBytes([]int32{7}, 0, [][]int32{{6}, {0}, {6}, {3}}, []float64{1, 2, 3, 4}))
	f.Add(cooBytes(nil, 0, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		dims, idx, vals := decodeCOO(data)
		if dims == nil {
			return
		}
		valid := len(dims) > 0 && len(idx) == len(dims)
		for n, d := range dims {
			valid = valid && d > 0 && d <= math.MaxInt32 && len(idx[n]) == len(vals)
			for _, i := range idx[n] {
				valid = valid && i >= 0 && int(i) < d
			}
		}
		in := &Sparse{dims: dims, idx: make([][]int32, len(idx)), vals: slices.Clone(vals)}
		for n := range idx {
			in.idx[n] = slices.Clone(idx[n])
		}

		s, err := SparseFromCOO(dims, idx, vals)
		if (err == nil) != valid {
			t.Fatalf("dims %v, %d entries: error %v, want accepted %v", dims, len(vals), err, valid)
		}
		if err != nil {
			return
		}
		if in.keyFits() && in.sortedByKey() != in.sortedPairwise() {
			t.Fatalf("dims %v: sortedByKey %v, sortedPairwise %v", dims, in.sortedByKey(), in.sortedPairwise())
		}
		distinct := make(map[string]bool)
		for p := range in.vals {
			var key []byte
			for n := range in.idx {
				key = binary.LittleEndian.AppendUint32(key, uint32(in.idx[n][p]))
			}
			distinct[string(key)] = true
		}
		if int(s.NNZ()) != len(distinct) {
			t.Fatalf("%d entries after dedup, want %d distinct coordinates", s.NNZ(), len(distinct))
		}
		for n := range s.idx {
			if len(s.idx[n]) != len(s.vals) {
				t.Fatalf("mode %d holds %d coordinates for %d values", n, len(s.idx[n]), len(s.vals))
			}
			for p, i := range s.idx[n] {
				if i < 0 || int(i) >= dims[n] {
					t.Fatalf("entry %d: mode-%d coordinate %d out of range (dim %d)", p, n, i, dims[n])
				}
			}
		}
		if !s.sortedPairwise() {
			t.Fatal("accepted tensor is not strictly sorted")
		}
	})
}

package tensor

import (
	"bytes"
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

package tensor

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSparseFromCOOSortsAndDedups(t *testing.T) {
	// Unsorted input with a duplicate coordinate: entries must come back
	// lexicographically sorted and the duplicate summed.
	dims := []int{3, 4}
	idx := [][]int32{{2, 0, 1, 0}, {3, 1, 2, 1}}
	vals := []float64{4, 1, 3, 2}
	s, err := SparseFromCOO(dims, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 3 {
		t.Fatalf("nnz %d after dedup, want 3", s.NNZ())
	}
	wantI := [][2]int32{{0, 1}, {1, 2}, {2, 3}}
	wantV := []float64{3, 3, 4}
	for p := 0; p < 3; p++ {
		if s.Index(0)[p] != wantI[p][0] || s.Index(1)[p] != wantI[p][1] || s.Values()[p] != wantV[p] {
			t.Fatalf("entry %d = (%d,%d)=%g, want (%d,%d)=%g", p,
				s.Index(0)[p], s.Index(1)[p], s.Values()[p], wantI[p][0], wantI[p][1], wantV[p])
		}
	}
}

func TestSparseFromCOORejectsBadInput(t *testing.T) {
	dims := []int{3, 4}
	for _, tc := range []struct {
		name string
		idx  [][]int32
		vals []float64
	}{
		{"coordinate out of range", [][]int32{{3}, {0}}, []float64{1}},
		{"negative coordinate", [][]int32{{0}, {-1}}, []float64{1}},
		{"length mismatch", [][]int32{{0, 1}, {0}}, []float64{1, 1}},
		{"vals mismatch", [][]int32{{0}, {0}}, []float64{1, 2}},
		{"wrong mode count", [][]int32{{0}}, []float64{1}},
	} {
		if _, err := SparseFromCOO(dims, tc.idx, tc.vals); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSparseDensifyAndNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := RandomSparse(rng, 0.1, 6, 5, 4)
	d := s.Densify()
	// Every stored entry appears densified; the dense norm matches.
	sum := 0.0
	for p := 0; p < int(s.NNZ()); p++ {
		v := d.At(int(s.Index(0)[p]), int(s.Index(1)[p]), int(s.Index(2)[p]))
		if v != s.Values()[p] {
			t.Fatalf("entry %d densified to %g, want %g", p, v, s.Values()[p])
		}
		sum += v * v
	}
	if got, want := s.NormSquared(nil, 2), sum; absDiff(got, want) > 1e-12 {
		t.Fatalf("norm² %g, want %g", got, want)
	}
}

// permuted returns a copy of s's entries taken in the order perm lists
// them, bypassing SparseFromCOO so the result may be unsorted.
func permuted(s *Sparse, perm []int) *Sparse {
	out := &Sparse{dims: s.dims, idx: make([][]int32, len(s.idx)), vals: make([]float64, len(perm))}
	for n := range s.idx {
		out.idx[n] = make([]int32, len(perm))
		for q, p := range perm {
			out.idx[n][q] = s.idx[n][p]
		}
	}
	for q, p := range perm {
		out.vals[q] = s.vals[p]
	}
	return out
}

// TestSparseSortedByKeyMatchesPairwise pins the one-pass sortedness check
// to the pairwise compare: both agree on sorted input, a swapped pair, a
// duplicate and two sorted runs in the wrong order, over orders 1–5 and
// tensors longer than one key block. On a shape whose Π dims overflows
// 63 bits the linear keys would wrap, so the check falls back to the
// pairwise compare, and SparseFromCOO still sorts input that wrapped keys
// would call sorted.
func TestSparseSortedByKeyMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dims := range [][]int{{9}, {7, 5}, {4, 3, 6}, {1, 5, 1}, {3, 2, 4, 2, 3}, {40, 30, 20}} {
		base := RandomSparse(rng, 0.5, dims...)
		nnz := int(base.NNZ())
		ident := func() []int {
			perm := make([]int, nnz)
			for p := range perm {
				perm[p] = p
			}
			return perm
		}
		for _, tc := range []struct {
			name   string
			perm   func() []int
			sorted bool
		}{
			{"sorted", ident, true},
			{"swapped pair", func() []int {
				perm := ident()
				p := rng.Intn(nnz - 1)
				perm[p], perm[p+1] = perm[p+1], perm[p]
				return perm
			}, false},
			{"duplicate", func() []int {
				perm := ident()
				p := rng.Intn(nnz - 1)
				perm[p+1] = perm[p]
				return perm
			}, false},
			{"out-of-order runs", func() []int {
				k := 1 + rng.Intn(nnz-1)
				return append(ident()[k:], ident()[:k]...)
			}, false},
		} {
			s := permuted(base, tc.perm())
			if !s.keyFits() {
				t.Fatalf("dims %v: keys do not fit", dims)
			}
			key, pair := s.sortedByKey(), s.sortedPairwise()
			if key != pair || key != tc.sorted {
				t.Errorf("dims %v %s: sortedByKey %v, sortedPairwise %v, want %v", dims, tc.name, key, pair, tc.sorted)
			}
		}
	}

	for _, tc := range []struct {
		dims []int
		fits bool
	}{
		{[]int{1 << 30, 1 << 30, 4}, true}, // Π dims = 2^62
		{[]int{1 << 30, 1 << 30, 8}, false},
		{[]int{math.MaxInt32, math.MaxInt32, 2}, true},
		{[]int{math.MaxInt32, math.MaxInt32, math.MaxInt32}, false},
	} {
		if got := (&Sparse{dims: tc.dims}).keyFits(); got != tc.fits {
			t.Errorf("dims %v: keyFits %v, want %v", tc.dims, got, tc.fits)
		}
	}
	// (2,0,0) then (1,0,0): the first key, 2·(2^31−1)^2, wraps negative in
	// 64 bits, so wrapped keys would increase and skip the sort.
	dims := []int{math.MaxInt32, math.MaxInt32, math.MaxInt32}
	x, err := SparseFromCOO(dims, [][]int32{{2, 1}, {0, 0}, {0, 0}}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(x.Index(0), []int32{1, 2}) || !slices.Equal(x.Values(), []float64{2, 1}) {
		t.Fatalf("overflowing shape: mode-0 coordinates %v values %v, want [1 2] [2 1]", x.Index(0), x.Values())
	}
}

func TestSparseIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := RandomSparse(rng, 0.05, 9, 8, 7)
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSparse(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != s.NNZ() {
		t.Fatalf("nnz %d, want %d", back.NNZ(), s.NNZ())
	}
	for p := 0; p < int(s.NNZ()); p++ {
		for k := 0; k < 3; k++ {
			if back.Index(k)[p] != s.Index(k)[p] {
				t.Fatalf("entry %d mode %d coord %d, want %d", p, k, back.Index(k)[p], s.Index(k)[p])
			}
		}
		if absDiff(back.Values()[p], s.Values()[p]) > 1e-12 {
			t.Fatalf("entry %d value %g, want %g", p, back.Values()[p], s.Values()[p])
		}
	}
}

// TestSparseSaveKeepsDims pins that a saved sparse tensor keeps its
// shape: a mode whose last index holds no entry does not shrink, and a
// tensor with no entries round-trips.
func TestSparseSaveKeepsDims(t *testing.T) {
	for _, s := range []*Sparse{
		NewSparse([]int{6, 5, 4}, [][]int32{{0, 2}, {1, 1}, {0, 3}}, []float64{1.5, -2}),
		NewSparse([]int{3, 2}, [][]int32{nil, nil}, nil),
	} {
		path := filepath.Join(t.TempDir(), "x.tns")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSparse(path)
		if err != nil {
			t.Fatalf("%v: LoadSparse: %v", s.Dims(), err)
		}
		x, err := LoadAny(path)
		if err != nil {
			t.Fatalf("%v: LoadAny: %v", s.Dims(), err)
		}
		for _, got := range []Interface{back, x} {
			if got.Layout() != LayoutCOO || !sameDims(got.Dims(), s.Dims()) || got.NNZ() != s.NNZ() {
				t.Errorf("%v with %d entries loads as %v %v with %d", s.Dims(), s.NNZ(), got.Layout(), got.Dims(), got.NNZ())
			}
		}
	}
}

func TestSparseLoadErrorsNameTheLine(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"field count", "1 1 1 2.0\n1 1\n", "line 2"},
		{"bad coordinate", "1 1 1 2.0\n1 x 1 3.0\n", "line 2"},
		{"zero coordinate", "0 1 1 2.0\n", "line 1"},
		{"bad value", "1 1 1 nope\n", "line 1"},
		{"non-finite value", "1 1 1 +Inf\n", "line 1"},
		{"empty", "# only a comment\n", "no entries"},
		{"beyond declared dim", "# dims 2 2\n1 1 1.0\n1 3 2.0\n", "line 3"},
		{"bad declared dim", "# dims 2 x\n1 1 1.0\n", "line 1"},
		{"order differs from declared", "# dims 2 2 2\n1 1 1.0\n", "line 2"},
		{"duplicates overflow", "1 1 1e308\n1 1 1e308\n", "float64 range"},
	} {
		_, err := ReadSparseFrom(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadAnySniffsFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()

	dPath := filepath.Join(dir, "dense.bin")
	d := Random(rng, 4, 3, 2)
	if err := d.Save(dPath); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAny(dPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layout() != LayoutDense {
		t.Fatalf("dense file sniffed as %v", got.Layout())
	}

	sPath := filepath.Join(dir, "sparse.tns")
	s := RandomSparse(rng, 0.2, 4, 3, 2)
	if err := s.Save(sPath); err != nil {
		t.Fatal(err)
	}
	got, err = LoadAny(sPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layout() != LayoutCOO {
		t.Fatalf("COO file sniffed as %v", got.Layout())
	}
	if got.NNZ() != s.NNZ() {
		t.Fatalf("sniffed load nnz %d, want %d", got.NNZ(), s.NNZ())
	}

	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a tensor\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAny(junk); err == nil {
		t.Fatal("junk file loaded without error")
	}
}

func TestRandomSparseDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := RandomSparse(rng, 0.01, 50, 40, 30)
	want := int64(0.01 * 50 * 40 * 30)
	if s.NNZ() != want {
		t.Fatalf("nnz %d, want %d", s.NNZ(), want)
	}
	// Entries are sorted and distinct.
	for p := 1; p < int(s.NNZ()); p++ {
		a := [3]int32{s.Index(0)[p-1], s.Index(1)[p-1], s.Index(2)[p-1]}
		b := [3]int32{s.Index(0)[p], s.Index(1)[p], s.Index(2)[p]}
		if !(a[0] < b[0] || (a[0] == b[0] && (a[1] < b[1] || (a[1] == b[1] && a[2] < b[2])))) {
			t.Fatalf("entries %d and %d out of order: %v, %v", p-1, p, a, b)
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

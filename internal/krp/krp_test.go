package krp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// columnwiseRef computes the KRP by its column-wise Kronecker definition:
// K(:, c) = mats[0](:, c) ⊗ … ⊗ mats[Z-1](:, c).
func columnwiseRef(mats []mat.View) mat.View {
	rows := NumRows(mats)
	cols := mats[0].C
	out := mat.NewDense(rows, cols)
	for c := 0; c < cols; c++ {
		col := []float64{1}
		for _, m := range mats {
			next := make([]float64, 0, len(col)*m.R)
			for _, v := range col {
				for i := 0; i < m.R; i++ {
					next = append(next, v*m.At(i, c))
				}
			}
			col = next
		}
		for j, v := range col {
			out.Set(j, c, v)
		}
	}
	return out
}

func randomMats(rng *rand.Rand, rowsList []int, cols int) []mat.View {
	mats := make([]mat.View, len(rowsList))
	for z, r := range rowsList {
		mats[z] = mat.RandomDense(r, cols, rng)
	}
	return mats
}

func TestFullMatchesColumnwiseDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]int{{3}, {3, 4}, {2, 3, 4}, {3, 2, 4, 2}, {2, 2, 2, 2, 2}, {1, 5, 1}, {7, 1}}
	for _, rowsList := range cases {
		for _, cols := range []int{1, 3, 25} {
			mats := randomMats(rng, rowsList, cols)
			out := mat.NewDense(NumRows(mats), cols)
			Full(mats, out)
			want := columnwiseRef(mats)
			if !mat.ApproxEqual(out, want, 1e-14) {
				t.Errorf("rows=%v cols=%d: Full != columnwise definition", rowsList, cols)
			}
		}
	}
}

func TestRowwiseIndexingMatchesPaperExample(t *testing.T) {
	// Paper: K(rB + rA·IB, :) = A(rA,:) ∗ B(rB,:) for K = A ⊙ B.
	rng := rand.New(rand.NewSource(2))
	a := mat.RandomDense(3, 4, rng)
	b := mat.RandomDense(5, 4, rng)
	out := mat.NewDense(15, 4)
	Full([]mat.View{a, b}, out)
	for ra := 0; ra < 3; ra++ {
		for rb := 0; rb < 5; rb++ {
			for c := 0; c < 4; c++ {
				want := a.At(ra, c) * b.At(rb, c)
				if got := out.At(rb+ra*5, c); got != want {
					t.Fatalf("K(%d,%d) = %v, want %v", rb+ra*5, c, got, want)
				}
			}
		}
	}
}

func TestNaiveMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rowsList := range [][]int{{4}, {2, 5}, {3, 3, 3}, {2, 3, 2, 3}} {
		mats := randomMats(rng, rowsList, 6)
		a := mat.NewDense(NumRows(mats), 6)
		b := mat.NewDense(NumRows(mats), 6)
		Full(mats, a)
		Naive(mats, b)
		if !mat.ApproxEqual(a, b, 0) {
			t.Errorf("rows=%v: Naive != Full", rowsList)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := parallel.NewPool(4)
	defer p.Close()
	ws := p.Acquire()
	defer ws.Release()
	for _, rowsList := range [][]int{{6}, {4, 5}, {3, 4, 5}, {2, 3, 4, 2}} {
		mats := randomMats(rng, rowsList, 5)
		want := mat.NewDense(NumRows(mats), 5)
		Full(mats, want)
		for _, threads := range []int{1, 2, 3, 7, 100} {
			got := mat.NewDense(NumRows(mats), 5)
			ParallelOn(p, ws, threads, mats, got)
			if !mat.ApproxEqual(got, want, 0) {
				t.Errorf("rows=%v threads=%d: parallel != sequential", rowsList, threads)
			}
			got2 := mat.NewDense(NumRows(mats), 5)
			NaiveParallel(p, threads, mats, got2)
			if !mat.ApproxEqual(got2, want, 0) {
				t.Errorf("rows=%v threads=%d: naive parallel != sequential", rowsList, threads)
			}
		}
	}
}

func TestRowsArbitraryRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mats := randomMats(rng, []int{3, 4, 2}, 4)
	full := mat.NewDense(24, 4)
	Full(mats, full)
	for lo := 0; lo <= 24; lo++ {
		for hi := lo; hi <= 24; hi++ {
			out := mat.NewDense(hi-lo, 4)
			Rows(mats, lo, hi, out)
			if hi > lo && !mat.ApproxEqual(out, full.Slice(lo, hi, 0, 4), 0) {
				t.Fatalf("Rows(%d,%d) mismatch", lo, hi)
			}
		}
	}
}

func TestRowAndRowAt(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mats := randomMats(rng, []int{2, 3, 4}, 5)
	full := mat.NewDense(24, 5)
	Full(mats, full)
	out := make([]float64, 5)
	for j := 0; j < 24; j++ {
		RowAt(mats, j, out)
		for c := 0; c < 5; c++ {
			if out[c] != full.At(j, c) {
				t.Fatalf("RowAt(%d) mismatch at col %d", j, c)
			}
		}
	}
}

func TestHadamardExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kl := mat.RandomDense(6, 4, rng)
	row := []float64{2, 3, 4, 5}
	out := mat.NewDense(6, 4)
	HadamardExpand(row, kl, out)
	for l := 0; l < 6; l++ {
		for c := 0; c < 4; c++ {
			if out.At(l, c) != row[c]*kl.At(l, c) {
				t.Fatalf("expand (%d,%d) wrong", l, c)
			}
		}
	}
	// It must equal the KRP of a 1-row matrix with kl.
	oneRow := mat.FromRowMajor(row, 1, 4)
	want := mat.NewDense(6, 4)
	Full([]mat.View{oneRow, kl}, want)
	if !mat.ApproxEqual(out, want, 0) {
		t.Error("HadamardExpand != KRP with 1-row matrix")
	}
}

func TestSingleOperandIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := mat.RandomDense(5, 3, rng)
	out := mat.NewDense(5, 3)
	Full([]mat.View{a}, out)
	if !mat.ApproxEqual(a, out, 0) {
		t.Error("KRP of one matrix should be the matrix")
	}
}

func TestValidationPanics(t *testing.T) {
	a := mat.NewDense(2, 3)
	b := mat.NewDense(2, 4) // mismatched columns
	cases := []func(){
		func() { Full(nil, mat.NewDense(1, 1)) },
		func() { Full([]mat.View{a, b}, mat.NewDense(4, 3)) },
		func() { Full([]mat.View{a}, mat.NewDense(3, 3)) },                   // wrong rows
		func() { Full([]mat.View{a}, mat.NewColMajor(2, 3)) },                // wrong layout
		func() { Full([]mat.View{a.T()}, mat.NewDense(3, 2)) },               // strided operand
		func() { Rows([]mat.View{a}, 1, 3, mat.NewDense(2, 3)) },             // hi out of range
		func() { Rows([]mat.View{a}, 0, 2, mat.NewDense(1, 3)) },             // wrong output rows
		func() { HadamardExpand([]float64{1}, a, mat.NewDense(2, 3)) },       // bad row len
		func() { HadamardExpand([]float64{1, 2, 3}, a, mat.NewDense(3, 3)) }, // bad out rows
		func() { Row([]mat.View{a, b}, []int{0, 0}, make([]float64, 3)) },    // cols mismatch tolerated? Had panics
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: KRP is associative with respect to operand grouping —
// KRP(A, B, C) = KRP(KRP(A, B), C).
func TestAssociativityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ja, jb, jc := rng.Intn(4)+1, rng.Intn(4)+1, rng.Intn(4)+1
		cols := rng.Intn(6) + 1
		a := mat.RandomDense(ja, cols, rng)
		b := mat.RandomDense(jb, cols, rng)
		c := mat.RandomDense(jc, cols, rng)
		full := mat.NewDense(ja*jb*jc, cols)
		Full([]mat.View{a, b, c}, full)
		ab := mat.NewDense(ja*jb, cols)
		Full([]mat.View{a, b}, ab)
		grouped := mat.NewDense(ja*jb*jc, cols)
		Full([]mat.View{ab, c}, grouped)
		return mat.ApproxEqual(full, grouped, 1e-14)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: every row of the KRP is the Hadamard product of the decomposed
// operand rows (the paper's row-wise definition), for random shapes.
func TestRowDefinitionQuick(t *testing.T) {
	f := func(seed int64, j16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		z := rng.Intn(4) + 1
		rowsList := make([]int, z)
		for i := range rowsList {
			rowsList[i] = rng.Intn(5) + 1
		}
		cols := rng.Intn(5) + 1
		mats := randomMats(rng, rowsList, cols)
		rows := NumRows(mats)
		j := int(j16) % rows
		out := mat.NewDense(rows, cols)
		Full(mats, out)
		// Decompose j with last index fastest.
		l := make([]int, z)
		jj := j
		for zz := z - 1; zz >= 0; zz-- {
			l[zz] = jj % rowsList[zz]
			jj /= rowsList[zz]
		}
		for c := 0; c < cols; c++ {
			want := 1.0
			for zz := 0; zz < z; zz++ {
				want *= mats[zz].At(l[zz], c)
			}
			d := out.At(j, c) - want
			if d > 1e-12 || d < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Text COO format: one entry per line as N whitespace-separated 1-based
// coordinates followed by the value (the FROSTT .tns convention), with
// '#'-prefixed comment lines permitted anywhere. A "# dims I_1 … I_N"
// comment before the first entry declares the shape: WriteSparseTo always
// writes one, so a mode whose last index holds no entry keeps its size and
// a tensor with no entries round-trips, while FROSTT readers skip it as a
// comment. Without it, the order is inferred from the first data line's
// field count and each dimension is the largest coordinate seen in that
// mode. Duplicate coordinates merge by summation (the COO constructor's
// invariant).

// WriteSparseTo serializes the tensor in the text COO format.
func (s *Sparse) WriteSparseTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	count := func(n int, err error) error {
		total += int64(n)
		return err
	}
	if err := count(fmt.Fprintf(bw, "# dims %s\n", strings.Trim(fmt.Sprint(s.dims), "[]"))); err != nil {
		return total, fmt.Errorf("tensor: write coo: %w", err)
	}
	for p, v := range s.vals {
		for n := range s.idx {
			if err := count(fmt.Fprintf(bw, "%d ", s.idx[n][p]+1)); err != nil {
				return total, fmt.Errorf("tensor: write coo: %w", err)
			}
		}
		if err := count(fmt.Fprintf(bw, "%g\n", v)); err != nil {
			return total, fmt.Errorf("tensor: write coo: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return total, fmt.Errorf("tensor: flush: %w", err)
	}
	return total, nil
}

// Save writes the tensor to a file in the text COO format.
func (s *Sparse) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := s.WriteSparseTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSparseFrom parses the text COO format. Malformed lines fail with
// the line number and what was wrong — coordinate files come from other
// tools, and "parse error" without a position is useless at a few million
// lines.
func ReadSparseFrom(r io.Reader) (*Sparse, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var (
		order    int
		idx      [][]int32
		vals     []float64
		dims     []int
		declared bool
		line     int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			if f := strings.Fields(text); order == 0 && len(f) >= 2 && f[0] == "#" && f[1] == "dims" {
				var err error
				if dims, err = parseDeclaredDims(f[2:]); err != nil {
					return nil, fmt.Errorf("tensor: coo line %d: %w", line, err)
				}
				order, declared = len(dims), true
				idx = make([][]int32, order)
			}
			continue
		}
		fields := strings.Fields(text)
		if order == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("tensor: coo line %d: %d fields, want at least 2 (coordinates then value)", line, len(fields))
			}
			order = len(fields) - 1
			idx = make([][]int32, order)
			dims = make([]int, order)
		}
		if len(fields) != order+1 {
			return nil, fmt.Errorf("tensor: coo line %d: %d fields, want %d (%d coordinates then the value)", line, len(fields), order+1, order)
		}
		for n := 0; n < order; n++ {
			c, err := strconv.ParseInt(fields[n], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tensor: coo line %d: coordinate %d %q is not an integer", line, n+1, fields[n])
			}
			if c < 1 || c > math.MaxInt32 {
				return nil, fmt.Errorf("tensor: coo line %d: coordinate %d is %d, want 1..%d (1-based)", line, n+1, c, math.MaxInt32)
			}
			if int(c) > dims[n] {
				if declared {
					return nil, fmt.Errorf("tensor: coo line %d: coordinate %d is %d, beyond the declared dimension %d", line, n+1, c, dims[n])
				}
				dims[n] = int(c)
			}
			idx[n] = append(idx[n], int32(c-1))
		}
		v, err := strconv.ParseFloat(fields[order], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("tensor: coo line %d: value %q is not a finite number", line, fields[order])
		}
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tensor: read coo: %w", err)
	}
	if order == 0 {
		return nil, fmt.Errorf("tensor: coo file holds no entries and declares no dims")
	}
	s, err := SparseFromCOO(dims, idx, vals)
	if err != nil {
		return nil, err
	}
	for _, v := range s.vals {
		if math.IsInf(v, 0) {
			return nil, fmt.Errorf("tensor: coo duplicate entries sum past the float64 range")
		}
	}
	return s, nil
}

// parseDeclaredDims parses the sizes of a "# dims" declaration.
func parseDeclaredDims(fields []string) ([]int, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("dims declaration lists no dimensions")
	}
	dims := make([]int, len(fields))
	for n, f := range fields {
		d, err := strconv.Atoi(f)
		if err != nil || d < 1 || d > math.MaxInt32 {
			return nil, fmt.Errorf("declared dimension %d is %q, want 1..%d", n+1, f, math.MaxInt32)
		}
		dims[n] = d
	}
	return dims, nil
}

// LoadSparse reads a text COO file written by (*Sparse).Save (or any
// FROSTT-style .tns file).
func LoadSparse(path string) (*Sparse, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSparseFrom(bufio.NewReader(f))
}

// LoadAny reads a tensor file of either format, sniffing which one it is:
// a DSNT file announces itself with its magic in the first eight bytes and
// loads through Load, anything else is parsed as text COO triples. This is
// what the root LoadTensor entry point calls.
func LoadAny(path string) (Interface, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(8)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("tensor: sniff %s: %w", path, err)
	}
	if len(head) == 8 && binary.LittleEndian.Uint64(head) == ioMagic {
		return Load(path)
	}
	return ReadSparseFrom(br)
}

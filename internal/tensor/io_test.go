package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sameBits reports whether x and y have equal dims and bit-identical
// entries.
func sameBits(x, y *Dense) bool {
	if !sameDims(x.dims, y.dims) {
		return false
	}
	for i, v := range x.data {
		if math.Float64bits(v) != math.Float64bits(y.data[i]) {
			return false
		}
	}
	return true
}

// writeBytes writes b to a fresh file under t's temp directory.
func writeBytes(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.dsnt")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][]int{{4}, {3, 5}, {2, 3, 4}, {1, 1, 7}} {
		d := Random(rng, dims...)
		path := filepath.Join(t.TempDir(), "x.dsnt")
		if err := d.Save(path); err != nil {
			t.Fatalf("dims=%v: save: %v", dims, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(mapDataOffsetAlign + 8*d.Size()); fi.Size() != want {
			t.Errorf("dims=%v: wrote %d bytes, want %d", dims, fi.Size(), want)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("dims=%v: load: %v", dims, err)
		}
		if !sameBits(d, back) {
			t.Errorf("dims=%v: round trip changed data", dims)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Random(rng, 3, 4, 2)
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(d, back) != 0 {
		t.Error("file round trip changed data")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.tns")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// TestDenseFileInterop pins that there is one dense file format: a file
// written by Save opens with OpenDense and StatDense, and one written by
// WriteDenseFile loads through Load and LoadAny, all with identical bits.
func TestDenseFileInterop(t *testing.T) {
	want := Random(rand.New(rand.NewSource(4)), 5, 3, 2)
	dir := t.TempDir()

	saved := filepath.Join(dir, "saved.dsnt")
	if err := want.Save(saved); err != nil {
		t.Fatal(err)
	}
	info, err := StatDense(saved)
	if err != nil {
		t.Fatalf("StatDense on a saved file: %v", err)
	}
	if !sameDims(info.Dims, want.dims) {
		t.Fatalf("StatDense dims %v, want %v", info.Dims, want.dims)
	}
	m, err := OpenDense(saved)
	if err != nil {
		t.Fatalf("OpenDense on a saved file: %v", err)
	}
	defer m.Close()
	if !sameBits(m.Dense, want) {
		t.Fatal("OpenDense on a saved file changed data")
	}

	written := filepath.Join(dir, "written.dsnt")
	if err := WriteDenseFile(written, want); err != nil {
		t.Fatal(err)
	}
	back, err := Load(written)
	if err != nil {
		t.Fatalf("Load on a WriteDenseFile file: %v", err)
	}
	if !sameBits(back, want) {
		t.Fatal("Load on a WriteDenseFile file changed data")
	}
	x, err := LoadAny(written)
	if err != nil {
		t.Fatalf("LoadAny on a WriteDenseFile file: %v", err)
	}
	if d, ok := x.(*Dense); !ok || !sameBits(d, want) {
		t.Fatalf("LoadAny on a WriteDenseFile file: %v tensor with changed data", x.Layout())
	}
}

func TestReadRejectsCorruptHeaders(t *testing.T) {
	goodPath := filepath.Join(t.TempDir(), "good.dsnt")
	if err := New(2, 2).Save(goodPath); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(b []byte) []byte, wantErr string) {
		b := append([]byte(nil), good...)
		_, err := Load(writeBytes(t, mutate(b)))
		if err == nil {
			t.Errorf("%s: expected error", name)
			return
		}
		if wantErr != "" && !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantErr)
		}
	}

	corrupt("bad magic", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[0:], 0xdeadbeef)
		return b
	}, "magic")
	corrupt("bad version", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[8:], 99)
		return b
	}, "version")
	corrupt("zero order", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], 0)
		return b
	}, "order")
	corrupt("huge order", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], 1000)
		return b
	}, "order")
	corrupt("zero dim", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:], 0)
		return b
	}, "dimension")
	corrupt("truncated data", func(b []byte) []byte {
		return b[:len(b)-8]
	}, "truncated")
	// A header declaring 2^18 × 2^18 entries (2 TiB) with no data behind
	// it must fail on the file size, before anything is allocated.
	corrupt("huge dims, no data", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:], 1<<18)
		binary.LittleEndian.PutUint64(b[32:], 1<<18)
		return b[:mapDataOffsetAlign]
	}, "truncated")
	corrupt("empty", func(b []byte) []byte {
		return nil
	}, "")
}

func TestReadRejectsOverflowDims(t *testing.T) {
	b := make([]byte, mapDataOffsetAlign)
	for i, v := range []uint64{ioMagic, mapVersion, 4, 1 << 20, 1 << 20, 1 << 20, 1 << 20, mapDataOffsetAlign} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	if _, err := Load(writeBytes(t, b)); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("2^80 entries: %v, want an overflow rejection", err)
	}
}

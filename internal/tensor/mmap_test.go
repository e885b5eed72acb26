package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeTempTensor(t *testing.T, d *Dense) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.dsnt")
	if err := WriteDenseFile(path, d); err != nil {
		t.Fatalf("WriteDenseFile: %v", err)
	}
	return path
}

func TestMapRoundTrip(t *testing.T) {
	want := Random(rand.New(rand.NewSource(42)), 5, 4, 3)
	path := writeTempTensor(t, want)

	m, err := OpenDense(path)
	if err != nil {
		t.Fatalf("OpenDense: %v", err)
	}
	defer m.Close()
	if m.Order() != 3 || m.Dim(0) != 5 || m.Dim(1) != 4 || m.Dim(2) != 3 {
		t.Fatalf("dims = %v, want [5 4 3]", m.Dims())
	}
	for i, v := range want.Data() {
		if got := m.Data()[i]; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("entry %d: got %v, want %v", i, got, v)
		}
	}
	if m.FileSize() == 0 || m.Checksum() == 0 {
		t.Fatalf("missing file identity: size=%d checksum=%d", m.FileSize(), m.Checksum())
	}
	if m.Stale() {
		t.Fatal("freshly opened map reports stale")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if m.Dense.Data() != nil {
		t.Fatal("data slab survives Close")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestMapDataSectionPageAligned(t *testing.T) {
	path := writeTempTensor(t, Random(rand.New(rand.NewSource(1)), 3, 3))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := readMapHeader(f)
	if err != nil {
		t.Fatalf("readMapHeader: %v", err)
	}
	if h.dataOffset%mapDataOffsetAlign != 0 {
		t.Fatalf("dataOffset %d not aligned to %d", h.dataOffset, mapDataOffsetAlign)
	}
}

func TestCreateDenseFileZeros(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zero.dsnt")
	if err := CreateDenseFile(path, []int{6, 5, 4}); err != nil {
		t.Fatalf("CreateDenseFile: %v", err)
	}
	m, err := OpenDense(path)
	if err != nil {
		t.Fatalf("OpenDense: %v", err)
	}
	defer m.Close()
	if m.Size() != 6*5*4 {
		t.Fatalf("size = %d, want %d", m.Size(), 6*5*4)
	}
	for i, v := range m.Data() {
		if v != 0 {
			t.Fatalf("entry %d = %v, want 0", i, v)
		}
	}
}

// TestStatDense pins the header-only identity read: it agrees with
// OpenDense on every identity field without touching the data section,
// and rejects a truncated file the same way.
func TestStatDense(t *testing.T) {
	path := writeTempTensor(t, Random(rand.New(rand.NewSource(9)), 7, 6, 5))
	info, err := StatDense(path)
	if err != nil {
		t.Fatalf("StatDense: %v", err)
	}
	m, err := OpenDense(path)
	if err != nil {
		t.Fatalf("OpenDense: %v", err)
	}
	defer m.Close()
	if len(info.Dims) != 3 || info.Dims[0] != 7 || info.Dims[1] != 6 || info.Dims[2] != 5 {
		t.Fatalf("dims = %v, want [7 6 5]", info.Dims)
	}
	if !info.ModTime.Equal(m.ModTime()) || info.Size != m.FileSize() || info.Checksum != m.Checksum() {
		t.Fatalf("identity (%v, %d, %d) disagrees with OpenDense (%v, %d, %d)",
			info.ModTime, info.Size, info.Checksum, m.ModTime(), m.FileSize(), m.Checksum())
	}
	if err := os.Truncate(path, info.Size-8); err != nil {
		t.Fatal(err)
	}
	if _, err := StatDense(path); err == nil {
		t.Fatal("StatDense accepted a truncated data section")
	}
}

func TestMapTruncatedDataSection(t *testing.T) {
	path := writeTempTensor(t, Random(rand.New(rand.NewSource(7)), 4, 4, 4))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDense(path); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("OpenDense on truncated file: err = %v, want truncated data section", err)
	}
}

func TestMapDimsOverflow(t *testing.T) {
	// Hand-craft a header whose dims product overflows the size bound.
	path := filepath.Join(t.TempDir(), "overflow.dsnt")
	buf := make([]byte, mapDataOffsetAlign)
	binary.LittleEndian.PutUint64(buf[0:], ioMagic)
	binary.LittleEndian.PutUint64(buf[8:], mapVersion)
	binary.LittleEndian.PutUint64(buf[16:], 3)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(buf[24+8*i:], uint64(math.MaxInt32))
	}
	binary.LittleEndian.PutUint64(buf[48:], mapDataOffsetAlign)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDense(path); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("OpenDense on overflowing dims: err = %v, want overflow", err)
	}
}

func TestMapRejectsVersion1(t *testing.T) {
	// A version-1 file of a 4×4 tensor: magic, version, order and dims,
	// then the data right after, with no dataOffset or padding.
	var b []byte
	for _, v := range []uint64{ioMagic, 1, 2, 4, 4} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	path := writeBytes(t, append(b, make([]byte, 8*16)...))
	if _, err := OpenDense(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("OpenDense on v1 file: err = %v, want version error", err)
	}
}

func TestMapStaleAfterRewrite(t *testing.T) {
	d := Random(rand.New(rand.NewSource(11)), 4, 3, 2)
	path := writeTempTensor(t, d)
	m, err := OpenDense(path)
	if err != nil {
		t.Fatalf("OpenDense: %v", err)
	}
	defer m.Close()

	// Same size, different mtime: the file was rewritten under the map.
	if err := os.Chtimes(path, time.Time{}, m.ModTime().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if !m.Stale() {
		t.Fatal("mtime change not reported as stale")
	}
	// Size change is also stale — and a vanished file too.
	if err := os.Truncate(path, m.FileSize()-8); err != nil {
		t.Fatal(err)
	}
	if !m.Stale() {
		t.Fatal("size change not reported as stale")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !m.Stale() {
		t.Fatal("vanished file not reported as stale")
	}
}

func TestMapChecksumIdentifiesHeader(t *testing.T) {
	a := writeTempTensor(t, Random(rand.New(rand.NewSource(1)), 4, 3))
	b := writeTempTensor(t, Random(rand.New(rand.NewSource(2)), 4, 3))
	c := writeTempTensor(t, Random(rand.New(rand.NewSource(3)), 3, 4))
	open := func(p string) *Map {
		m, err := OpenDense(p)
		if err != nil {
			t.Fatalf("OpenDense(%s): %v", p, err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	ma, mb, mc := open(a), open(b), open(c)
	if ma.Checksum() != mb.Checksum() {
		t.Fatal("same shape must hash to the same header checksum")
	}
	if ma.Checksum() == mc.Checksum() {
		t.Fatal("different shapes must hash to different header checksums")
	}
}

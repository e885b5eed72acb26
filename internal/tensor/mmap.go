package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"time"
)

// DSNT file format, the one dense tensor file format: Save and
// WriteDenseFile write it, Load, OpenDense and StatDense read it. The data
// section is padded out to a page boundary so the float64 slab can be
// mapped directly:
//
//	offset 0            magic      uint64 LE = 0x544e5344 ("DSNT")
//	offset 8            version    uint64 LE = 2
//	offset 16           order      uint64 LE   (1 ≤ order ≤ 16)
//	offset 24           dims       order × uint64 LE (each ≥ 1)
//	offset 24+8·order   dataOffset uint64 LE   (multiple of 8, ≥ header)
//	…                   zero padding to dataOffset
//	offset dataOffset   data       ∏dims × float64 LE, natural linearization
//
// Writers align dataOffset to 4 KiB so the data section starts on a page
// boundary on every common host; readers only require 8-byte alignment
// (the mapping base is page-aligned, so the float64 view stays aligned).
// Version 1, the same header without dataOffset or padding, is no longer
// read. The format is little-endian.
const (
	ioMagic            = 0x544e5344 // "DSNT"
	mapVersion         = 2
	mapMaxOrder        = 16
	mapMaxElems        = int64(1) << 50 // matches the wire codec's payload bound
	mapDataOffsetAlign = 4096
)

// Map is a file-backed dense tensor: the embedded Dense's data slab points
// into a read-only mapped region of the file (or, on hosts without mmap
// support, a heap copy). The tensor is valid until Close; mutating tensor
// methods must not be called on a mapped tensor — the pages are mapped
// read-only and writes fault.
type Map struct {
	*Dense
	path     string
	mtime    time.Time
	size     int64
	checksum uint64
	raw      []byte // the mapping; nil when the fallback loader was used
	closed   bool
}

// Path returns the file the tensor was opened from.
func (m *Map) Path() string { return m.path }

// ModTime returns the file's modification time observed at open.
func (m *Map) ModTime() time.Time { return m.mtime }

// FileSize returns the file's byte size observed at open.
func (m *Map) FileSize() int64 { return m.size }

// Checksum returns the FNV-1a hash of the file's header section (the bytes
// before dataOffset). Together with size and mtime it identifies the file
// version cheaply — no pass over the data section, which may exceed RAM.
func (m *Map) Checksum() uint64 { return m.checksum }

// Stale re-stats the file and reports whether its size or modification
// time no longer match what was observed at open (the file was replaced or
// rewritten under the mapping). A vanished file counts as stale.
func (m *Map) Stale() bool {
	fi, err := os.Stat(m.path)
	if err != nil {
		return true
	}
	return fi.Size() != m.size || !fi.ModTime().Equal(m.mtime)
}

// Close releases the mapping. The tensor's data slab is invalid afterwards
// (the Dense is re-pointed at an empty slab so stale use fails fast rather
// than faulting).
func (m *Map) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.Dense.data = nil
	m.Dense.mapped = false
	if m.raw == nil {
		return nil
	}
	raw := m.raw
	m.raw = nil
	return unmapFile(raw)
}

// mapHeader is the decoded fixed part of a mappable tensor file.
type mapHeader struct {
	dims       []int
	size       int64 // ∏ dims
	dataOffset int64
	checksum   uint64 // FNV-1a over bytes [0, dataOffset)
}

// readMapHeader reads and validates a DSNT header from r, which must be
// positioned at the start of the file.
func readMapHeader(r io.Reader) (*mapHeader, error) {
	h := fnv.New64a()
	tr := io.TeeReader(r, h)
	var fixed [24]byte
	if _, err := io.ReadFull(tr, fixed[:]); err != nil {
		return nil, fmt.Errorf("tensor: read header: %w", err)
	}
	magic := binary.LittleEndian.Uint64(fixed[0:])
	version := binary.LittleEndian.Uint64(fixed[8:])
	order := binary.LittleEndian.Uint64(fixed[16:])
	if magic != ioMagic {
		return nil, fmt.Errorf("tensor: bad magic 0x%x", magic)
	}
	if version != mapVersion {
		return nil, fmt.Errorf("tensor: unsupported DSNT version %d (want %d)", version, mapVersion)
	}
	if order == 0 || order > mapMaxOrder {
		return nil, fmt.Errorf("tensor: implausible order %d", order)
	}
	buf := make([]byte, 8*(order+1))
	if _, err := io.ReadFull(tr, buf); err != nil {
		return nil, fmt.Errorf("tensor: read dims: %w", err)
	}
	out := &mapHeader{dims: make([]int, order), size: 1}
	for i := range out.dims {
		d := binary.LittleEndian.Uint64(buf[8*i:])
		if d == 0 || d > math.MaxInt32 {
			return nil, fmt.Errorf("tensor: implausible dimension %d", d)
		}
		if out.size > mapMaxElems/int64(d) {
			return nil, fmt.Errorf("tensor: dimensions overflow the mappable size bound")
		}
		out.dims[i] = int(d)
		out.size *= int64(d)
	}
	off := binary.LittleEndian.Uint64(buf[8*order:])
	headerLen := int64(24 + 8*(order+1))
	if off%8 != 0 || int64(off) < headerLen || off > 1<<30 {
		return nil, fmt.Errorf("tensor: implausible data offset %d", off)
	}
	out.dataOffset = int64(off)
	// The padding participates in the checksum: hash everything up to the
	// data section.
	if _, err := io.CopyN(io.Discard, tr, out.dataOffset-headerLen); err != nil {
		return nil, fmt.Errorf("tensor: read header padding: %w", err)
	}
	out.checksum = h.Sum64()
	return out, nil
}

// mapHeaderBytes encodes the DSNT header (including padding) for dims.
func mapHeaderBytes(dims []int) ([]byte, error) {
	if len(dims) == 0 || len(dims) > mapMaxOrder {
		return nil, fmt.Errorf("tensor: order %d outside [1,%d]", len(dims), mapMaxOrder)
	}
	headerLen := int64(24 + 8*(len(dims)+1))
	dataOffset := (headerLen + mapDataOffsetAlign - 1) / mapDataOffsetAlign * mapDataOffsetAlign
	buf := make([]byte, dataOffset)
	binary.LittleEndian.PutUint64(buf[0:], ioMagic)
	binary.LittleEndian.PutUint64(buf[8:], mapVersion)
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(dims)))
	size := int64(1)
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("tensor: dimension %d is %d, must be positive", i, d)
		}
		if size > mapMaxElems/int64(d) {
			return nil, fmt.Errorf("tensor: dimensions overflow the mappable size bound")
		}
		size *= int64(d)
		binary.LittleEndian.PutUint64(buf[24+8*i:], uint64(d))
	}
	binary.LittleEndian.PutUint64(buf[24+8*len(dims):], uint64(dataOffset))
	return buf, nil
}

// WriteDenseFile writes d to path in the DSNT format (header padded to a
// page boundary, then the float64 slab). The result round-trips through
// OpenDense and Load.
func WriteDenseFile(path string, d *Dense) error {
	hdr, err := mapHeaderBytes(d.dims)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("tensor: write header: %w", err)
	}
	// Stream the slab through a bounded scratch buffer rather than one
	// binary.Write of the whole slice, which would materialize a second
	// copy of a possibly huge tensor.
	const chunk = 64 << 10
	buf := make([]byte, 8*chunk)
	for lo := 0; lo < len(d.data); lo += chunk {
		hi := min(lo+chunk, len(d.data))
		for i, v := range d.data[lo:hi] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := f.Write(buf[:8*(hi-lo)]); err != nil {
			f.Close()
			return fmt.Errorf("tensor: write data: %w", err)
		}
	}
	return f.Close()
}

// CreateDenseFile writes the header for an all-zero tensor of the given
// dims and truncates the file to its full extent without writing the data
// pages. On filesystems with sparse-file support the data section occupies
// no disk and reads as zeros, so a tensor far larger than RAM (or disk) can
// be created instantly for out-of-core experiments.
func CreateDenseFile(path string, dims []int) error {
	hdr, err := mapHeaderBytes(dims)
	if err != nil {
		return err
	}
	size := int64(1)
	for _, d := range dims {
		size *= int64(d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("tensor: write header: %w", err)
	}
	if err := f.Truncate(int64(len(hdr)) + 8*size); err != nil {
		f.Close()
		return fmt.Errorf("tensor: extend data section: %w", err)
	}
	return f.Close()
}

// OpenDense opens a mappable tensor file and returns a file-backed Dense:
// on hosts with mmap support the data slab is a read-only mapping of the
// file's data section (advised MADV_SEQUENTIAL — the kernels stream it in
// ascending order); elsewhere the data section is read into the heap. The
// caller must Close the returned Map when done with the tensor.
func OpenDense(path string) (*Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	h, err := readMapHeader(f)
	if err != nil {
		return nil, err
	}
	need := h.dataOffset + 8*h.size
	if fi.Size() < need {
		return nil, fmt.Errorf("tensor: truncated data section: file is %d bytes, header promises %d", fi.Size(), need)
	}
	if h.size > int64(math.MaxInt)/8 {
		return nil, fmt.Errorf("tensor: %d entries exceed the address space", h.size)
	}
	m := &Map{
		path:     path,
		mtime:    fi.ModTime(),
		size:     fi.Size(),
		checksum: h.checksum,
	}
	data, raw, err := mapData(f, h.dataOffset, int(h.size))
	if err != nil {
		return nil, err
	}
	m.raw = raw
	m.Dense = FromData(data, h.dims...)
	if raw != nil {
		m.Dense.mapped = true
		adviseSequential(raw)
	}
	return m, nil
}

// DenseFileInfo is the identity of a mappable tensor file: its shape plus
// the (mtime, size, header checksum) triple that names this version of the
// file. It is what a by-reference client ships instead of the payload.
type DenseFileInfo struct {
	Dims     []int
	ModTime  time.Time
	Size     int64
	Checksum uint64
}

// StatDense reads a mappable tensor file's header and file identity
// without mapping (or reading) its data section — the cheap way to build
// a by-reference descriptor for a tensor that may exceed RAM.
func StatDense(path string) (*DenseFileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	h, err := readMapHeader(f)
	if err != nil {
		return nil, err
	}
	if need := h.dataOffset + 8*h.size; fi.Size() < need {
		return nil, fmt.Errorf("tensor: truncated data section: file is %d bytes, header promises %d", fi.Size(), need)
	}
	return &DenseFileInfo{
		Dims:     h.dims,
		ModTime:  fi.ModTime(),
		Size:     fi.Size(),
		Checksum: h.checksum,
	}, nil
}

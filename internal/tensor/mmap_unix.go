//go:build (linux || darwin) && (amd64 || arm64)

package tensor

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// The mapped path is gated to little-endian mmap hosts: the on-disk slab is
// float64 LE, so reinterpreting mapped bytes in place is only correct where
// the host byte order matches. Other hosts read through the portable
// fallback loader instead.

// mapData maps the file read-only and returns the float64 view of its data
// section plus the raw mapping (for munmap/madvise).
func mapData(f *os.File, dataOffset int64, n int) ([]float64, []byte, error) {
	length := dataOffset + 8*int64(n)
	raw, err := syscall.Mmap(int(f.Fd()), 0, int(length), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("tensor: mmap %s: %w", f.Name(), err)
	}
	if n == 0 {
		return nil, raw, nil
	}
	data := unsafe.Slice((*float64)(unsafe.Pointer(&raw[dataOffset])), n)
	return data, raw, nil
}

func unmapFile(raw []byte) error {
	return syscall.Munmap(raw)
}

// adviseSequential hints that the mapping will be streamed in ascending
// order (larger readahead). Advice is best-effort; errors are ignored.
func adviseSequential(raw []byte) {
	if len(raw) > 0 {
		_ = syscall.Madvise(raw, syscall.MADV_SEQUENTIAL)
	}
}
